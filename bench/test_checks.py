"""Negative controls for the benchmark's correctness gate.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Each test corrupts one real output and asserts that the gate reports
it, so a gate that passes everything cannot go unnoticed.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Op, build  # noqa: E402


def _runner(tmp_path, workload, ops):
    runner = run.Runner(workload, run.DEFAULT_SEED, tmp_path)
    runner.ops = ops
    runner.run_pass(1)
    return runner


def _rewrite(path: Path, edit):
    """Replace every data row by edit(row); at least one row must change."""
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    changed = 0
    for i in range(start, len(lines)):
        row = lines[i].split(",")
        new = edit(row)
        if new != row:
            lines[i] = ",".join(new)
            changed += 1
    assert changed, "nothing to corrupt"
    path.write_text("\n".join(lines) + "\n")


def _fail_frac(runner):
    _, failures = runner.verify(seed=2)  # not the default seed: no golden comparison
    attempted, failed = runner.tally(failures)
    return failed / attempted


@pytest.fixture
def walk_runner(tmp_path):
    ops = build("walks", 3)
    return _runner(tmp_path, "walks", [ops[0], ops[-1]])  # general and bounce walks


def test_clean_walks_pass(walk_runner):
    assert _fail_frac(walk_runner) == 0.0


def test_probabilities_not_summing_to_one_fail(walk_runner):
    def bump(row):
        if row[0] == "5" and row[1] == "up":
            row = list(row)
            row[2] = repr(float(row[2]) + 1e-9)
        return row

    _rewrite(walk_runner.out_path(0), bump)
    assert _fail_frac(walk_runner) > 0.0


def test_entangled_special_point_fails(walk_runner):
    def entangle(row):
        return [*row[:4], "0.5", "0.5"] if row[0] == "7" else row

    _rewrite(walk_runner.out_path(1), entangle)
    assert _fail_frac(walk_runner) > 0.0


def test_output_changing_between_passes_fails(walk_runner):
    walk_runner.digests.insert(0, ["other"] * len(walk_runner.ops))
    assert _fail_frac(walk_runner) > 0.0


@pytest.fixture
def averaged_runner(tmp_path):
    # a 20-step search at a low threshold gives real hits in a fraction of a second
    argv = ("search", "--mode", "averaged", "--grid", "0.9", "--steps", "20",
            "--p-min", "0.15", "--avg-min", "0.5")
    check = {"p_min": 0.15, "avg_min": 0.5}
    op = Op("averaged", argv, "averaged", 20, 1575, check)
    return _runner(tmp_path, "search-averaged", [op])


def test_clean_averaged_hits_pass(averaged_runner):
    table = checks.parse(averaged_runner.out_path(0).read_text())
    assert table.rows
    assert _fail_frac(averaged_runner) == 0.0


def test_perturbed_averaged_hit_fails(averaged_runner):
    def perturb(row):
        row = list(row)
        row[7] = repr(float(row[7]) - 1e-6)
        return row

    _rewrite(averaged_runner.out_path(0), perturb)
    assert _fail_frac(averaged_runner) > 0.0


def test_isolated_hit_with_wrong_term_count_fails(tmp_path):
    argv = ("search", "--mode", "isolated", "--grid", "0.9", "--steps", "4", "--p-min", "0.15")
    op = Op("isolated", argv, "isolated", 4, 1575,
            {"p_min": 0.15, "sample_seed": 0})
    runner = _runner(tmp_path, "search-isolated", [op])
    assert _fail_frac(runner) == 0.0

    def miscount(row):
        return [*row[:9], str(int(row[9]) + 1)] if int(row[9]) == 2 else row

    _rewrite(runner.out_path(0), miscount)
    assert _fail_frac(runner) > 0.0


def test_golden_mismatch_is_reported():
    table = checks.Table(["step", "outcome", "P"], [["1", "up", "0.5"], ["1", "down", "0.5"]])
    golden = table.numeric()
    assert checks.compare_golden("x", table, table.header, golden) == []
    golden[1, 2] += 1e-11
    assert checks.compare_golden("x", table, table.header, golden)
    golden[1, 2] -= 1e-11
    golden[0, 0] = 2.0
    assert checks.compare_golden("x", table, table.header, golden)


def test_traced_pass_accounts_for_its_wall_time(tmp_path):
    ops = build("sweeps", 3)
    runner = run.Runner("sweeps", 3, tmp_path)
    runner.ops = [ops[0], ops[-1]]  # a preset and a general line
    tracer = tracing.Tracer()
    restore, absent = tracing.install(tracer)
    try:
        wall = runner.run_pass(1)
    finally:
        restore()
    assert absent == []
    stats = tracer.stats()
    assert stats["well_formed"] and stats["min_self_s"] >= 0
    assert abs(stats["root_total_s"] - stats["self_total_s"]) < 1e-9 * wall
    assert 0 <= wall - stats["root_total_s"] < 0.01 * wall  # time outside cli.main
    assert {name for name, (calls, _, _) in stats["by_name"].items() if calls} >= {
        "core.step", "core.coin_matrix", "core.measure_spin", "entanglement.record",
        "entanglement.entropy", "sweep.sweep_1d", "cli.build_parser", "cli.parse_args",
        "cli.emit", "cli.main"}
    assert tracer.counters["sweep_points"] == 202 + 15

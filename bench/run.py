"""tandemwalk benchmark: seeded workloads through the public CLI entry point.

    python3 bench/run.py --workload walks --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, each in a fresh process

Run from the repository root.  With --trace 0 one run times whole passes
of the workload for --seconds and prints the end-to-end metrics; with
--trace 1 it times untraced passes, then traced ones, and prints the
per-layer metrics.  Either way every output is checked (see checks.py)
and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it are the human-readable report: the environment,
every metric with its unit, and any failed check with the points
involved.  README.md in this directory explains each workload and metric.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 1
SETUP_PROBES = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tandemwalk.cli as c; "
    "raise SystemExit(c.main(['evolve', '--steps', '2', '--out', sys.argv[2]]))"
)
# tiny calls that import and exercise each subcommand before timing starts
WARMUP = {
    "walk": ["evolve", "--steps", "4"],
    "sweep": ["sweep", "--figure", "fig1", "--steps", "2"],
    "averaged": ["search", "--mode", "averaged", "--grid", "1.0", "--steps", "2"],
    "isolated": ["search", "--mode", "isolated", "--grid", "1.0", "--steps", "2"],
}
ACCOUNTING_ATOL = 1e-9


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs passes of one workload and keeps what the checks need."""

    def __init__(self, workload: str, seed: int, rundir: Path):
        import tandemwalk.cli as cli
        import workloads

        self.cli = cli
        self.workload = workload
        self.ops = workloads.build(workload, seed)
        self.rundir = rundir
        self.calls = []  # (op index, seconds, error or None)
        self.digests = []  # per pass: list of output digests

    def out_path(self, i: int) -> Path:
        return self.rundir / f"op{i:02d}.csv"

    def call(self, argv) -> tuple[float, str | None]:
        """One CLI call; returns (seconds, error message or None)."""
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
            error = None if code == 0 else f"exit code {code}: {sink.getvalue().strip()}"
        except Exception:
            error = traceback.format_exc()
        return time.perf_counter() - t0, error

    def warm_up(self, workers):
        for kind in sorted({op.kind for op in self.ops}):
            argv = WARMUP[kind] + ["--out", str(self.rundir / "warmup.csv")]
            if kind in ("averaged", "isolated"):
                argv += ["--workers", str(workers)]
            self.call(argv)

    def run_pass(self, workers) -> float:
        """One pass over every operation; returns its wall time."""
        t0 = time.perf_counter()
        for i, op in enumerate(self.ops):
            seconds, error = self.call(op.command(str(self.out_path(i)), workers))
            self.calls.append((i, seconds, error))
        wall = time.perf_counter() - t0
        self.digests.append([self.digest(i) for i in range(len(self.ops))])
        return wall

    def digest(self, i: int) -> str:
        try:
            return hashlib.sha256(self.out_path(i).read_bytes()).hexdigest()
        except OSError:
            return "missing"

    def run_for(self, seconds: float, workers, min_passes: int = 1) -> list[float]:
        walls, t0 = [], time.perf_counter()
        while len(walls) < min_passes or time.perf_counter() - t0 < seconds:
            walls.append(self.run_pass(workers))
        return walls

    def point_steps(self, tables) -> int:
        total = 0
        for op, table in zip(self.ops, tables):
            points = op.points
            if points is None:  # sweeps: distinct keys before the outcome column
                j = table.header.index("outcome")
                points = len({tuple(row[:j]) for row in table.rows})
            total += points * op.steps
        return total

    def verify(self, seed: int) -> tuple[list, dict]:
        """Check the outputs; return (tables, {op index: failure messages})."""
        import checks

        failures = {i: [] for i in range(len(self.ops))}
        tables = []
        last = self.digests[-1]
        for i, op in enumerate(self.ops):
            try:
                table = checks.parse(self.out_path(i).read_text())
            except (OSError, ValueError) as exc:
                failures[i].append(f"{op.label}: unreadable output: {exc}")
                tables.append(None)
                continue
            tables.append(table)
            if any(d[i] != last[i] for d in self.digests):
                failures[i].append(f"{op.label}: output bytes differ between passes")
            failures[i] += checks.CHECKS[op.kind](op, table)
        averaged = sorted((i for i, op in enumerate(self.ops)
                           if op.kind == "averaged" and tables[i] is not None),
                          key=lambda i: -self.ops[i].check["avg_min"])
        for i, j in zip(averaged, averaged[1:]):
            failures[j] += checks.check_hit_subset(self.ops[i], tables[i], self.ops[j], tables[j])
        if seed == DEFAULT_SEED:
            for i, msg in self.golden(tables).items():
                failures[i] += msg
        return tables, failures

    def golden(self, tables) -> dict:
        import checks
        import numpy as np

        path = GOLDEN / f"{self.workload}.npz"
        if not path.is_file():
            return {0: [f"golden file {path.name} missing"]}
        out = {}
        with np.load(path) as data:
            for i, (op, table) in enumerate(zip(self.ops, tables)):
                key = f"{i:02d}"
                if f"{key}.argv" not in data or list(data[f"{key}.argv"]) != list(op.argv):
                    out[i] = [f"{op.label}: golden inputs differ from this workload"]
                elif table is not None:
                    out[i] = checks.compare_golden(
                        op.label, table, list(data[f"{key}.header"]), data[f"{key}.rows"])
        return out

    def tally(self, failures) -> tuple[int, int]:
        """(attempted, failed): a call fails on an error or a failed check of its output."""
        failed = sum(1 for i, _, error in self.calls if error or failures[i])
        return len(self.calls), failed


def setup_seconds(rundir: Path) -> list[float]:
    """Fresh interpreters importing tandemwalk and making one trivial call."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(rundir / "setup.csv")],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(runner: Runner, args, workers: int, report) -> dict:
    import workloads

    walls = runner.run_for(args.seconds, workers, min_passes=2)
    rss = peak_rss_mb()
    tables, failures = runner.verify(args.seed)
    setup = setup_seconds(runner.rundir)
    point_steps = runner.point_steps(tables) if all(tables) else 0
    # the mean over the whole timed window: machine speed drifts by tens of
    # percent over seconds, and a mean weighs each phase by its duration
    # where a median of a few passes jumps to whichever phase held most
    wall = sum(walls) / len(walls)
    metrics = {
        "setup_s": (median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "wall_s": (wall, "s", f"mean of {len(walls)} passes, median {median(walls):.4g} s"),
        "point_steps_per_s": (point_steps / wall, "1/s", f"{point_steps} point-steps per pass"),
        "peak_rss_mb": (rss, "MB", "this process plus its largest child"),
    }
    extra = {}
    walk_ms = [s * 1e3 for i, s, _ in runner.calls if runner.ops[i].kind == "walk"]
    if walk_ms:
        extra["walk_p50_ms"] = (median(walk_ms), "ms", f"n={len(walk_ms)} evolve calls")
        extra["walk_p90_ms"] = (percentile(walk_ms, 90), "ms", f"n={len(walk_ms)} evolve calls")
    if runner.workload == "search-averaged":
        op = runner.ops[0]
        full = workloads.grid_points(workloads.FULL_SCAN_GRID)
        default_s = median([s for i, s, _ in runner.calls if i == 0])
        extra["full_scan_h"] = (default_s * full / op.points / 3600.0, "h",
                                f"{op.label} scaled from {op.points} to {full} points")
    attempted, failed = runner.tally(failures)
    extra["fail_frac"] = (failed / attempted, "1", f"{failed}/{attempted} operations")
    report.append("passes_s " + " ".join(f"{w:.3f}" for w in walls))
    for i, op in enumerate(runner.ops):
        call_s = median([s for j, s, _ in runner.calls if j == i])
        report.append(f"op {op.label:28s} median {call_s:.4f} s")
    report_metrics(report, metrics, extra)
    return finish(report, failures, attempted, failed, metrics)


def layer_metrics(tracer, absent, wall, untraced, pool, runner, tables):
    """Per-layer metrics of one traced pass: (declared, report-only, accounting failures).

    Time outside every cli.main span is the benchmark's own; the layers'
    self times must make up the rest.
    """
    stats = tracer.stats()
    by = stats["by_name"]

    def calls(name):
        return by.get(name, (0, 0.0, 0.0))[0]

    def own(*names):
        return sum(by.get(n, (0, 0.0, 0.0))[2] for n in names)

    def per_call_us(name):
        return own(name) / calls(name) * 1e6 if calls(name) else 0.0

    layer = {}
    for name, (_, _, self_s) in by.items():
        prefix = name.split(".")[0]
        layer[prefix] = layer.get(prefix, 0.0) + self_s
    c = tracer.counters
    rows = sum(len(t.rows) for t in tables if t)
    size = sum(runner.out_path(i).stat().st_size for i in range(len(runner.ops)))
    emit_s = own("cli.emit") if "cli.emit" not in absent else own("cli.main")
    outside = wall - stats["root_total_s"]
    unaccounted = (wall - outside - stats["self_total_s"]) / wall
    grid_s = own("sweep.grid_search")
    declared = {
        "core.step.calls": (calls("core.step"), "count"),
        "core.coin_matrix.calls": (calls("core.coin_matrix"), "count"),
        "core.measure_spin.calls": (calls("core.measure_spin"), "count"),
        "core.self_frac": (layer.get("core", 0.0) / wall, "frac"),
        "entanglement.record.calls": (calls("entanglement.record"), "count"),
        "entanglement.zero_prob_frac": (
            c["zero_prob"] / calls("entanglement.record") if calls("entanglement.record") else 0.0,
            "frac"),
        "entanglement.self_frac": (layer.get("entanglement", 0.0) / wall, "frac"),
        "sweep.sweep_1d.points": (c["sweep_points"], "count"),
        "sweep.sweep_1d.self_frac": (own("sweep.sweep_1d") / wall, "frac"),
        "sweep.grid_search.points": (c["grid_points"], "count"),
        "sweep.grid_search.self_frac": (grid_s / wall, "frac"),
        "sweep.grid_search.point_steps_per_s": (
            c["grid_point_steps"] / grid_s if grid_s else 0.0, "1/s"),
        "sweep.grid_search.hits": (c["grid_hits"], "count"),
        "sweep.grid_search.hit_frac": (
            c["grid_hits"] / c["grid_decisions"] if c["grid_decisions"] else 0.0, "frac"),
        "sweep.pool.speedup": (pool[0], "x"),
        "sweep.pool.efficiency": (pool[1], "frac"),
        "cli.parse_ms": (
            (own("cli.build_parser") + own("cli.parse_args")) / calls("cli.main") * 1e3
            if calls("cli.main") else 0.0, "ms"),
        "cli.emit.self_ms": (emit_s * 1e3, "ms"),
        "cli.rows": (rows, "count"),
        "cli.bytes": (size, "B"),
        "cli.rows_per_s": (rows / emit_s if emit_s else 0.0, "1/s"),
        "cli.self_frac": (layer.get("cli", 0.0) / wall, "frac"),
        "trace.overhead_frac": (wall / untraced - 1.0, "frac"),
        "trace.unaccounted_frac": (unaccounted, "frac"),
    }
    first_hit = tracer.first_hit_ns[0] / 1e9 if tracer.first_hit_ns else None
    extra = {
        "core.step.self_us": (per_call_us("core.step"), "us", "per call"),
        "core.coin_matrix.self_us": (per_call_us("core.coin_matrix"), "us", "per call"),
        "core.measure_spin.self_us": (per_call_us("core.measure_spin"), "us", "per call"),
        "entanglement.record.self_us": (per_call_us("entanglement.record"), "us", "per call"),
        "entanglement.entropy.self_us": (per_call_us("entanglement.entropy"), "us", "per call"),
        "sweep.sweep_1d.self_s": (own("sweep.sweep_1d"), "s", "per pass"),
        "sweep.grid_search.self_s": (grid_s, "s", "per pass, time inside next()"),
        "sweep.grid_search.first_hit_s": (
            first_hit, "s", "first search with a hit" if first_hit is not None else "no hit"),
        "bench_s": (outside, "s", "traced wall outside cli.main spans"),
    }
    accounting = []
    if (not stats["well_formed"] or stats["min_self_s"] < 0 or outside < 0
            or abs(unaccounted) > ACCOUNTING_ATOL):
        accounting.append(
            f"self-time accounting: layers {stats['self_total_s']:.6f} s + outside "
            f"{outside:.6f} s vs traced wall {wall:.6f} s (unaccounted {unaccounted:.2e}, "
            f"min self {stats['min_self_s']:.2e} s, well formed {stats['well_formed']})")
    return declared, extra, accounting


def traced_run(runner: Runner, args, workers: int, report) -> dict:
    from tracing import Tracer, install

    # rounds alternate untraced and traced passes, so drift in machine speed
    # hits both sides of the overhead and pool-speedup ratios alike
    search = any(op.kind in ("averaged", "isolated") for op in runner.ops)
    untraced, single, results = [], [], []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < args.seconds:
        untraced.append(runner.run_pass(workers))
        if search:
            single.append(runner.run_pass(1))
        tracer = Tracer()
        restore, absent = install(tracer)
        try:
            wall = runner.run_pass(1 if search else workers)
        finally:
            restore()
        results.append((tracer, absent, wall))
    if search:
        speedup = median(single) / median(untraced)
        pool, baseline = (speedup, speedup / workers), median(single)
    else:
        pool, baseline = (0.0, 0.0), median(untraced)
    tables, failures = runner.verify(args.seed)
    per_pass = [layer_metrics(t, a, w, baseline, pool, runner, tables) for t, a, w in results]
    # median_low keeps a measured value, so counts stay whole numbers
    declared = {name: (statistics.median_low([p[0][name][0] for p in per_pass]), unit)
                for name, (_, unit) in per_pass[0][0].items()}
    extra = {}
    for name, (value, unit, note) in per_pass[0][1].items():
        values = [p[1][name][0] for p in per_pass]
        extra[name] = (None if None in values else statistics.median_low(values), unit, note)
    absent = results[0][1]
    metrics = {name: (value, unit, "") for name, (value, unit) in declared.items()}
    report.append(f"traced passes {len(results)}, untraced passes {len(untraced)} at "
                  f"{workers} workers" + (f", {len(single)} at 1 worker" if search else ""))
    if not search:
        report.append("sweep.pool.*: not applicable, this workload starts no pool (reported as 0)")
    report.append("absent spans: " + (", ".join(absent) if absent else "none"))
    report_metrics(report, metrics, extra)
    attempted, failed = runner.tally(failures)
    for p in per_pass:
        failures.setdefault(-1, []).extend(p[2])
    return finish(report, failures, attempted, failed, metrics)


def report_metrics(report, metrics, extra):
    for name, (value, unit, note) in {**metrics, **extra}.items():
        shown = "absent" if value is None else f"{value:.6g}"
        report.append(f"metric {name:40s} {shown:>14s} {unit:6s} {note}")


def finish(report, failures, attempted, failed, metrics) -> dict:
    messages = [m for i in sorted(failures) for m in failures[i]]
    for message in messages:
        report.append("FAIL " + message)
    return {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def run_one(args) -> int:
    start_load = loadavg()
    import numpy as np

    workers = nproc()
    rundir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    report = []
    try:
        runner = Runner(args.workload, args.seed, rundir)
        runner.warm_up(workers)
        run = traced_run if args.trace else timed_run
        result = run(runner, args, workers, report)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):
            rundir.parent.rmdir()
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": workers,
        "python": platform.python_version(), "numpy": np.__version__,
        "loadavg_start": start_load, "loadavg_end": loadavg(),
    }
    print("env " + json.dumps(env))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, timed then traced; one summary."""
    import workloads

    summary = {}
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tandemwalk" / "__init__.py").is_file():
        print(f"error: no tandemwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in ("all", *workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())

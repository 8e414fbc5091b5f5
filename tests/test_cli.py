import os
import subprocess
import sys
import time
import tracemalloc
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

import tandemwalk.cli as cli
import tandemwalk.sweep as sweep
from tandemwalk import (
    BALANCED_ALPHA,
    CoinFamily,
    CoinOperator,
    SearchMode,
    ShiftOperator,
    Spin,
    SweepMode,
    SweepSpec,
    find_max_cases,
    grid_search,
    sweep_1d,
    walk_entanglement_series,
)
from tandemwalk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEvolve:
    def test_near_balanced_hadamard_down(self, capsys):
        code, out, _ = run(
            capsys,
            "evolve",
            "--coin",
            "hadamard",
            "--alpha",
            "0.7071067812",
            "--beta-arg",
            "0",
            "--steps",
            "10",
            "--outcome",
            "down",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["step", "outcome", "P", "N", "E_bits", "normalized_E"]
        assert len(rows) == 10
        for row in rows[1:]:  # steps 2..10
            assert abs(float(row[5]) - 1.0) < 1e-9

    def test_z_identity_walk(self, capsys):
        code, out, _ = run(
            capsys, "evolve", "--coin", "z", "--alpha", "1", "--steps", "5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:  # deterministic walk: one term up, nothing down
            if row[1] == "up":
                assert row[3] == "1"
            else:
                assert float(row[2]) == 0.0 and row[3] == "0"
            assert float(row[4]) == 0.0
            assert float(row[5]) == 0.0

    def test_general_coin_matched_phase(self, capsys):
        code, out, _ = run(
            capsys,
            "evolve",
            "--coin",
            "general",
            "--rho",
            "0.5",
            "--theta",
            "0.9",
            "--eta",
            "0.7",
            "--alpha",
            "0.6",
            "--beta-arg",
            "1.6",
            "--steps",
            "2",
            "--outcome",
            "down",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[1][5]) - 1.0) < 1e-9

    def test_bad_parameter_names_field(self, capsys):
        code, _, err = run(
            capsys, "evolve", "--coin", "general", "--rho", "1.5", "--theta", "1",
            "--eta", "1", "--steps", "2",
        )
        assert code == 2
        assert "rho" in err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_no_steps_rejected(self, capsys, tmp_path, steps):
        out_path = tmp_path / "walk.csv"
        code, out, err = run(capsys, "evolve", "--steps", steps, "--out", str(out_path))
        assert code == 2 and out == ""
        assert "--steps" in err and "positive" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_beta_arg_writes_nothing(self, capsys, tmp_path, value):
        out_path = tmp_path / "walk.csv"
        code, out, err = run(
            capsys, "evolve", f"--beta-arg={value}", "--steps", "3", "--out", str(out_path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "beta_arg must be finite" in err
        assert not out_path.exists()

    def test_displacement_flags_removed(self, capsys):
        code, out, _ = run(capsys, "evolve", "--steps", "2")
        assert code == 0
        assert "# p=" not in out and "# q=" not in out
        code, _, err = run(capsys, "evolve", "--steps", "2", "--p", "3")
        assert code == 2
        assert "--p" in err

    def test_r2inv_alias_hits_exact_degeneracy(self, capsys):
        code, out, _ = run(
            capsys,
            "evolve",
            "--coin",
            "hadamard",
            "--alpha",
            "r2inv",
            "--steps",
            "8",
            "--outcome",
            "down",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(row[2]) == 0.0 for row in rows)  # P(down) exactly zero


class TestSweep:
    def test_fig1_columns(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "sweep", "--figure", "fig1", "--steps", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["alpha", "outcome", "avg_E_8"]
        assert "# figure=fig1" in out
        alphas = {float(r[0]) for r in rows}
        assert any(abs(a - BALANCED_ALPHA) < 1e-15 for a in alphas)

    def test_fig5_has_alpha_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--figure", "fig5", "--steps", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["beta_arg", "alpha", "outcome", "avg_E_4"]
        assert {float(r[1]) for r in rows} == {BALANCED_ALPHA, 0.37}

    def test_explicit_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--coin",
            "z",
            "--sweep",
            "beta_arg",
            "--start",
            "0",
            "--stop",
            "1",
            "--step",
            "0.5",
            "--alpha",
            "0.6",
            "--steps",
            "10",
            "--outcome",
            "down",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["beta_arg", "outcome", "avg_E_10"]
        assert len(rows) == 3

    def test_conflicting_flags(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--figure", "fig1", "--sweep", "alpha"
        )
        assert code == 2
        assert "conflicts" in err

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            "--coin",
            "hadamard",
            "--sweep",
            "beta_arg",
            "--start",
            "0",
            "--stop",
            "0",
            "--step",
            "0.5",
            "--alpha",
            "0.37",
            "--steps",
            "5",
            "--mode",
            "per-step",
            "--outcome",
            "down",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "beta_arg"
        assert len(rows) == 5  # single grid point, per-step rows

    def test_alpha_sweep_stays_inside_its_range(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--coin", "hadamard", "--sweep", "alpha",
            "--start", "0.3", "--stop", "0.3", "--steps", "4",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert {r[0] for r in rows} == {"0.3"}

    def test_rho_sweep_ends_exactly_at_one(self, capsys):
        # 0.09 + 13 * 0.07 lands one ulp above 1, where sqrt(1 - rho) is NaN
        code, out, _ = run(
            capsys, "sweep", "--coin", "general", "--sweep", "rho", "--start", "0.09",
            "--stop", "1.0", "--step", "0.07", "--theta", "0.3", "--eta", "0.2", "--steps", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(0.09 <= float(r[0]) <= 1.0 for r in rows)
        assert float(rows[-1][0]) == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sweep", "alpha", "--start", "0.3", "--stop", "0.3"],
            ["--figure", "fig1"],
            ["--figure", "fig2"],
        ],
    )
    def test_zero_steps_rejected(self, capsys, argv):
        code, out, err = run(capsys, "sweep", *argv, "--steps", "0")
        assert code == 2
        assert out == ""
        assert "n_steps" in err

    def test_missing_mode_rejected(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 2
        assert "figure" in err or "sweep" in err


    def test_swept_parameter_not_echoed(self, capsys):
        grid = ["--start", "0", "--stop", "1", "--step", "0.5", "--steps", "4"]
        general = ["--coin", "general", "--rho", "0.5", "--theta", "0.2"]
        cases = [  # swept, flags, echo lines that must stay
            ("eta", general, ["# rho=0.5", "# theta=0.2", "# alpha=0.7071067811865476"]),
            ("alpha", [], ["# coin=hadamard", "# beta_arg=0.0"]),  # the default alpha
            ("rho", [*general, "--eta", "0.4"], ["# theta=0.2", "# eta=0.4"]),  # --rho unused
        ]
        for swept, argv, kept in cases:
            code, out, _ = run(capsys, "sweep", *argv, "--sweep", swept, *grid)
            assert code == 0
            meta = [line for line in out.splitlines() if line.startswith("# ")]
            assert not [line for line in meta if line.startswith(f"# {swept}=")], swept
            assert "None" not in out
            assert f"# sweep={swept}" in meta and set(kept) <= set(meta), swept


class TestSweepBound:
    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_named(self, capsys, step):
        code, out, err = run(
            capsys, "sweep", "--coin", "hadamard", "--sweep", "alpha", "--step", step,
            "--steps", "2",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: sweep step must be positive")

    def test_too_fine_a_step_exits_2(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--coin", "hadamard", "--sweep", "alpha", "--start", "0",
            "--stop", "1", "--step", "1e-9", "--steps", "2",
        )
        assert code == 2 and out == ""
        assert err == "error: sweep step 1e-09 spans more than 10^7 grid steps\n"

    def test_too_many_per_step_rows_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, err = run(
            capsys, "sweep", "--coin", "hadamard", "--sweep", "alpha", "--start", "0",
            "--stop", "1", "--step", "1e-5", "--steps", "200", "--mode", "per-step",
            "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: per-step sweep gives ") and "rows" in err
        assert not out_path.exists()


class TestSearch:
    @pytest.mark.parametrize("grid", ["nan", "inf", "0", "-0.5"])
    def test_bad_grid_step_named(self, capsys, tmp_path, grid):
        out_path = tmp_path / "hits.csv"
        code, out, err = run(capsys, "search", "--grid", grid, "--steps", "4",
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: grid step must be positive")
        assert not out_path.exists()

    def test_too_fine_a_grid_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "hits.csv"
        # at 1e-12 no axis could be built; at 5e-324, a subnormal, pi / step overflows
        for grid in ("0.005", "1e-12", "5e-324"):
            start = time.perf_counter()
            code, out, err = run(capsys, "search", "--grid", grid, "--steps", "2",
                                 "--out", str(out_path))
            assert time.perf_counter() - start < 5  # rejected before any table is built
            assert code == 2 and out == ""
            assert err.startswith(f"error: grid step {grid} gives ") and "10^7" in err
            assert not out_path.exists()

    def test_isolated_coarse_grid(self, capsys):
        code, out, err = run(
            capsys,
            "search",
            "--mode",
            "isolated",
            "--coin",
            "general",
            "--grid",
            "0.5",
            "--steps",
            "6",
            "--p-min",
            "0.15",
            "--workers",
            "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:5] == ["rho", "theta", "eta", "alpha", "beta_arg"]
        assert rows
        assert all(2 <= int(r[5]) <= 4 for r in rows)
        assert "hits" in err

    def test_z_catalog_includes_the_balanced_step4_case(self, capsys):
        code, out, _ = run(
            capsys, "search", "--mode", "isolated", "--coin", "z", "--steps", "4"
        )
        assert code == 0
        _, rows = parse_csv(out)
        best = [
            r
            for r in rows
            if int(r[5]) == 4
            and r[6] == "down"
            and abs(float(r[3]) - BALANCED_ALPHA) < 1e-12
        ]
        assert best
        for r in best:
            assert abs(float(r[8]) - 0.25) < 1e-9
            assert int(r[9]) == 4

    def test_averaged_small_scan_is_empty(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--mode",
            "averaged",
            "--coin",
            "general",
            "--grid",
            "0.5",
            "--steps",
            "12",
            "--workers",
            "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == []

    def test_grid_echoed_only_where_it_shapes_rows(self, capsys):
        code, out, _ = run(capsys, "search", "--coin", "z", "--steps", "3", "--grid", "0.5")
        assert code == 0
        assert "# grid=" not in out
        code, out, _ = run(
            capsys, "search", "--coin", "general", "--grid", "0.5", "--steps", "3",
            "--workers", "1",
        )
        assert code == 0
        assert "# grid=0.5" in out

    def test_maximal_atol_echoed_only_where_it_shapes_rows(self, capsys):
        args = ["search", "--grid", "0.92", "--steps", "4", "--maximal-atol", "0.5"]
        code, out, _ = run(capsys, *args, "--mode", "averaged", "--workers", "1")
        assert code == 0
        assert "maximal_atol" not in out
        code, out, _ = run(capsys, *args, "--mode", "isolated", "--workers", "1")
        assert code == 0
        assert "# maximal_atol=0.5" in out
        code, out, _ = run(capsys, *args, "--coin", "z")
        assert code == 0
        assert "# maximal_atol=0.5" in out

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_non_positive_workers_rejected(self, capsys, monkeypatch, value):
        args = ["search", "--coin", "general", "--grid", "0.5", "--steps", "3"]
        code, out, err = run(capsys, *args, "--workers", value)
        assert code == 2
        assert "--workers" in err and "positive" in err
        assert out == ""
        monkeypatch.setenv("QRW_WORKERS", value)
        code, out, err = run(capsys, *args)
        assert code == 2
        assert "QRW_WORKERS" in err and "positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--coin", "general", "--grid", "0.5", "--steps", "1"],
            ["--coin", "hadamard", "--steps", "1", "--p-min", "5"],
        ],
    )
    def test_bad_arguments_write_nothing(self, capsys, tmp_path, argv):
        out_path = tmp_path / "hits.csv"
        code, _, err = run(capsys, "search", *argv, "--out", str(out_path))
        assert code == 2
        assert err.startswith("error:")
        assert not out_path.exists()

    @pytest.mark.parametrize("avg_min", ["5", "1", "-0.5"])
    def test_averaged_threshold_out_of_range_writes_nothing(self, capsys, tmp_path, avg_min):
        out_path = tmp_path / "hits.csv"
        code, _, err = run(
            capsys, "search", "--mode", "averaged", "--grid", "0.9", "--steps", "4",
            "--avg-min", avg_min, "--out", str(out_path),
        )
        assert code == 2
        assert err.startswith("error:") and "avg_threshold" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("atol", ["-1", "0", "1", "5"])
    @pytest.mark.parametrize("coin", ["general", "z"])
    def test_maximal_atol_out_of_range_writes_nothing(self, capsys, tmp_path, coin, atol):
        out_path = tmp_path / "hits.csv"
        code, _, err = run(
            capsys, "search", "--coin", coin, "--grid", "0.9", "--steps", "4",
            "--maximal-atol", atol, "--workers", "1", "--out", str(out_path),
        )
        assert code == 2
        assert err.startswith("error:") and "maximal_atol" in err
        assert not out_path.exists()

    def test_worker_count_keeps_bytes_identical(self, capsys):
        args = ["search", "--mode", "isolated", "--coin", "general", "--grid", "0.5",
                "--steps", "5"]
        code1, out1, _ = run(capsys, *args, "--workers", "1")
        code2, out2, _ = run(capsys, *args, "--workers", "2")
        assert code1 == code2 == 0
        assert out1 == out2


class TestParameterDomains:
    """Every entry point checks the five parameters against one table."""

    NAMES = ("rho", "theta", "eta", "alpha", "beta_arg")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_the_parameter_named(self, bad):
        good = {"rho": 0.5, "theta": 0.2, "eta": 0.3, "alpha": 0.6, "beta_arg": 1.0}
        for name in self.NAMES:
            params = {**good, name: bad}
            with pytest.raises(ValueError, match=name):  # the operator holding name
                CoinOperator(params["rho"], params["theta"], params["eta"])
                ShiftOperator(params["alpha"], params["beta_arg"])
            swept = "beta_arg" if name == "alpha" else "alpha"
            with pytest.raises(ValueError, match=name):
                SweepSpec(CoinFamily.GENERAL, swept, 0.1, 0.2, 0.05, 4, fixed={name: bad})
        with pytest.raises(ValueError, match="alpha"):
            find_max_cases(CoinFamily.Z, 4, 0.15, alpha_values=[0.5, bad])
        with pytest.raises(ValueError, match="beta_arg"):
            find_max_cases(CoinFamily.Z, 4, 0.15, alpha_values=[0.5], beta_arg_values=[bad])

    @pytest.mark.parametrize("value", [7.0, -3.0])
    def test_beta_arg_reduced_to_the_same_float_everywhere(self, capsys, value):
        reduced = ShiftOperator(0.5, value).beta_arg
        assert 0.0 <= reduced < 2 * np.pi and reduced == value % (2 * np.pi)
        spec = SweepSpec(CoinFamily.HADAMARD, "alpha", 0.1, 0.2, 0.05, 4,
                         fixed={"beta_arg": value})
        assert spec.fixed["beta_arg"] == reduced
        hits = find_max_cases(CoinFamily.Z, 4, 0.15, alpha_values=[0.5], beta_arg_values=[value])
        assert hits and {hit.beta_arg for hit in hits} == {reduced}
        assert hits == find_max_cases(
            CoinFamily.Z, 4, 0.15, alpha_values=[0.5], beta_arg_values=[reduced]
        )
        for argv in (
            ["evolve", "--coin", "hadamard", "--steps", "4"],
            ["sweep", "--sweep", "alpha", "--start", "0.1", "--stop", "0.2", "--step", "0.05",
             "--steps", "4"],
        ):
            code, out, _ = run(capsys, *argv, f"--beta-arg={value}")
            assert code == 0 and f"# beta_arg={reduced}\n" in out
            assert (code, out) == run(capsys, *argv, f"--beta-arg={reduced}")[:2]

    @pytest.mark.parametrize("coin", ["hadamard", "kempe", "z"])
    @pytest.mark.parametrize("flag", ["--rho", "--theta", "--eta"])
    def test_named_coin_rejects_a_coin_flag(self, capsys, tmp_path, coin, flag):
        """Neither command reads --rho, --theta or --eta with a named coin."""
        out_path = tmp_path / "rows.csv"
        for argv in (
            ["evolve", "--steps", "2"],
            ["sweep", "--sweep", "alpha", "--start", "0.1", "--stop", "0.2", "--step", "0.1",
             "--steps", "2"],
            ["sweep", "--figure", "fig6", "--steps", "2"],
        ):
            code, out, err = run(capsys, *argv, "--coin", coin, flag, "0.5", "--out", str(out_path))
            assert code == 2 and out == "" and not out_path.exists()
            assert err == f"error: {flag} is not used with the {coin} coin\n"
            assert run(capsys, *argv, "--coin", coin)[0] == 0
            general = ["--coin", "general", "--rho", "0.5", "--theta", "0.2", "--eta", "0.3"]
            assert run(capsys, *argv, *general)[0] == 0


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "40")
        assert code == 0
        assert out.count("pass") == 3

    @pytest.mark.parametrize("samples", ["-5", "0"])
    def test_non_positive_samples_rejected(self, capsys, samples):
        code, out, err = run(capsys, "verify", "--samples", samples)
        assert code == 2 and out == ""
        assert "--samples" in err and "positive" in err

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--samples", "25")
        assert code == 0
        assert "oracle: pass" in out

    def test_prints_worst_residual_per_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "20")
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["unitarity", "oracle", "special-points"]
        for line in lines:
            worst = float(line.split("(worst ")[1].rstrip(")"))
            assert 0.0 <= worst < 1e-12

    def test_special_points_check_the_real_walk(self, capsys, monkeypatch):
        """The CSVs come from the real walk of r: a real coin nudged off the
        chains by 1e-9 must fail the suite even though the complex walk holds."""
        real = cli._real_coins

        def nudged(*args, **kwargs):
            coins = real(*args, **kwargs)
            coins[:, 0, 1] += 1e-9
            coins[:, 1, 0] -= 1e-9
            return coins

        monkeypatch.setattr(cli, "_real_coins", nudged)
        code, out, err = run(capsys, "verify", "--suite", "special-points")
        assert code == 1 and out.startswith("special-points: FAIL")
        assert "real walk of r, chains: not exact at step 1" in err


class TestConfigAndEnv:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coin = z\nalpha = 0.6\nsteps = 4\noutcome = down\n")
        code, out, _ = run(capsys, "evolve", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 4\ncoin = z\nalpha = 0.6\n")
        code, out, _ = run(capsys, "evolve", "--config", str(cfg), "--steps", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert {r[0] for r in rows} == {"1", "2"}

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume = 11\n")
        code, _, err = run(capsys, "evolve", "--config", str(cfg))
        assert code == 2
        assert "volume" in err

    def test_verify_takes_no_config(self, capsys, tmp_path):
        """verify has no --config, so argparse rejects it before any file is read."""
        code, out, err = run(capsys, "verify", "--config", str(tmp_path / "missing.cfg"))
        assert code == 2 and out == ""
        assert "unrecognized arguments: --config" in err and "No such file" not in err

    def test_env_var_feeds_worker_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QRW_WORKERS", "1")
        code, out, _ = run(
            capsys, "search", "--mode", "isolated", "--coin", "general",
            "--grid", "0.5", "--steps", "5",
        )
        assert code == 0

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "evolve", "--coin", "z", "--alpha", "0.6", "--steps", "3",
            "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# tandemwalk")
        header, rows = parse_csv(text)
        assert len(rows) == 6  # both outcomes by default


class TestExitCodes:
    def test_unexpected_fault_exits_3_with_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_evolve", broken)
        code, out, err = run(capsys, "evolve", "--coin", "z", "--steps", "3")
        assert code == 3 and out == ""
        assert err.startswith("error: internal: RuntimeError(")
        assert err.count("\n") == 1 and "boom" in err

    def test_bad_parameters_still_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--coin", "hadamard", "--steps", "4")
        assert code == 2 and err.startswith("error: ") and "internal" not in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such" / "hits.csv"
        code, out, err = run(capsys, "search", "--coin", "z", "--steps", "4", "--out", str(missing))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "internal" not in err and "hits.csv" in err


class TestRepeatedCalls:
    """`main` builds its parser once per process and reuses it, so each call
    must write what it writes in a fresh interpreter, whatever ran before."""

    CALLS = [
        ["evolve", "--coin", "general", "--rho", "0.3", "--theta", "1.1", "--eta", "2.0",
         "--steps", "40"],
        ["search", "--mode", "averaged", "--grid", "coarse"],  # fails to parse
        ["sweep", "--figure", "fig1", "--steps", "3"],
        ["evolve", "--coin", "kempe", "--alpha", "r2inv", "--beta-arg", "pi/2", "--steps", "7",
         "--outcome", "up"],
    ]

    def test_each_call_writes_what_it_writes_alone(self, capsys):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        alone = [
            subprocess.run([sys.executable, "-m", "tandemwalk", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
            for argv in self.CALLS
        ]
        assert [result.returncode for result in alone] == [0, 2, 0, 0]
        together = [run(capsys, *argv) for argv in self.CALLS]
        assert together == [(r.returncode, r.stdout, r.stderr) for r in alone]


def assert_rows_match(text_rows, rows):
    """CSV fields against library rows: floats read back to the same
    float, spins as their value, everything else as its str."""
    assert len(text_rows) == len(rows)
    for text, row in zip(text_rows, rows):
        assert len(text) == len(row)
        for field, value in zip(text, row):
            if isinstance(value, float):
                assert float(field) == value, (text, row)
            elif isinstance(value, Spin):
                assert field == value.value, (text, row)
            else:
                assert field == str(value), (text, row)


class TestRowsMatchTheLibrary:
    """Every CLI row is the library's row, in the same order."""

    def test_evolve_both_outcomes(self, capsys):
        argv = ["--coin", "general", "--rho", "0.3", "--theta", "0.7", "--eta", "1.1",
                "--alpha", "0.4", "--beta-arg", "2.1", "--steps", "40", "--outcome", "both"]
        code, out, _ = run(capsys, "evolve", *argv)
        assert code == 0
        coin = CoinOperator(rho=0.3, theta=0.7, eta=1.1)
        shift = ShiftOperator(alpha=0.4, beta_arg=2.1)
        down, up = (walk_entanglement_series(coin, shift, 40, s) for s in (Spin.DOWN, Spin.UP))
        expected = [
            (r.step, r.outcome, r.probability, r.term_count, r.entropy, r.normalized)
            for pair in zip(down, up)
            for r in pair
        ]
        assert_rows_match(parse_csv(out)[1], expected)

    def test_per_step_general_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--coin", "general", "--rho", "0.3", "--theta", "0.2",
            "--eta", "0.5", "--beta-arg", "1.2", "--sweep", "alpha", "--start", "0.1",
            "--stop", "0.9", "--step", "0.2", "--steps", "8", "--mode", "per-step",
        )
        assert code == 0
        fixed = {"rho": 0.3, "theta": 0.2, "eta": 0.5, "beta_arg": 1.2}
        spec = SweepSpec(
            CoinFamily.GENERAL, "alpha", 0.1, 0.9, 0.2, 8, fixed, mode=SweepMode.PER_STEP
        )
        header, rows = sweep_1d(spec)
        assert parse_csv(out)[0] == header
        assert_rows_match(parse_csv(out)[1], rows)

    def test_fig5(self, capsys):
        code, out, _ = run(capsys, "sweep", "--figure", "fig5", "--steps", "6")
        assert code == 0
        expected = []
        for alpha in (BALANCED_ALPHA, 0.37):
            spec = SweepSpec(
                CoinFamily.KEMPE, "beta_arg", 0.0, 2 * float(np.pi), 0.005, 6,
                fixed={"alpha": alpha},
            )
            expected.extend((row[0], alpha, *row[1:]) for row in sweep_1d(spec)[1])
        assert_rows_match(parse_csv(out)[1], expected)

    @pytest.mark.parametrize(
        "argv, mode, kwargs",
        [
            (["--mode", "isolated", "--steps", "10"], SearchMode.ISOLATED_MAX, {"n_steps": 10}),
            (
                ["--mode", "averaged", "--steps", "60", "--avg-min", "0.75"],
                SearchMode.AVERAGED_HIGH,
                {"n_steps": 60, "avg_threshold": 0.75},
            ),
        ],
        ids=["isolated", "averaged"],
    )
    def test_search(self, capsys, argv, mode, kwargs):
        code, out, _ = run(capsys, "search", "--grid", "0.6", "--workers", "1", *argv)
        assert code == 0
        hits = list(grid_search(0.6, mode=mode, **kwargs))
        assert len(hits) > 1000
        assert_rows_match(parse_csv(out)[1], hits)


def body(text):
    """The CSV text after the metadata and the header line."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "".join(lines[start + 1:])


class TestSearchBytes:
    """A search's rows are, byte for byte, the `str` join of the library's
    hits, and stderr counts them."""

    @staticmethod
    def assert_bytes(capsys, argv, hits):
        code, out, err = run(capsys, "search", *argv)
        assert code == 0
        expected = [",".join(map(str, hit)) + "\n" for hit in hits]
        text = body(out)
        if text != "".join(expected):  # name the first wrong row; a whole-text diff takes minutes
            rows = text.splitlines(keepends=True)
            pairs = enumerate(zip_longest(rows, expected))
            wrong = next(i for i, (row, want) in pairs if row != want)
            pytest.fail(f"row {wrong}: {rows[wrong:wrong + 1]} != {expected[wrong:wrong + 1]}")
        assert err == f"{len(hits)} hits\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_isolated_grid(self, capsys, workers):
        hits = list(grid_search(0.3, 10, SearchMode.ISOLATED_MAX))
        assert len(hits) > 50000
        self.assert_bytes(capsys, ["--grid", "0.3", "--steps", "10", "--workers", workers], hits)

    def test_averaged_grid(self, capsys):
        hits = list(grid_search(0.6, 60, SearchMode.AVERAGED_HIGH, avg_threshold=0.75))
        assert hits
        argv = ["--mode", "averaged", "--grid", "0.6", "--steps", "60", "--avg-min", "0.75",
                "--workers", "1"]
        self.assert_bytes(capsys, argv, hits)

    @pytest.mark.parametrize("family", [CoinFamily.Z, CoinFamily.HADAMARD, CoinFamily.KEMPE])
    def test_catalog(self, capsys, family):
        hits = find_max_cases(family, 12, 0.15)
        assert hits
        self.assert_bytes(capsys, ["--coin", family.value, "--steps", "12"], hits)

    def test_no_hits(self, capsys):
        argv = ["--mode", "averaged", "--grid", "0.5", "--steps", "12", "--workers", "1"]
        self.assert_bytes(capsys, argv, [])

    def test_key_hits_straddle_small_pieces(self, capsys, monkeypatch):
        hits = list(grid_search(0.6, 10, SearchMode.ISOLATED_MAX))
        monkeypatch.setattr(sweep, "_PIECE", 7)
        _, pieces = sweep._search(
            CoinFamily.GENERAL, SearchMode.ISOLATED_MAX, 10, 0.15, sweep.MAXIMAL_ATOL,
            grid_step=0.6,
        )
        used = [set(piece_hits.tolist()) for _, piece_hits, _ in pieces]
        assert any(a & b for a, b in zip(used, used[1:]))  # a key hit in two pieces
        self.assert_bytes(capsys, ["--grid", "0.6", "--steps", "10", "--workers", "1"], hits)

    @pytest.mark.parametrize("argv", [
        # 11 beta_arg values a grid row: chunks of one row, of 4 rows, and the whole grid
        pytest.param(["--mode", "isolated", "--grid", "0.6", "--steps", "30", "--p-min", "0.05"],
                     id="isolated"),
        pytest.param(["--mode", "averaged", "--grid", "0.6", "--steps", "30", "--p-min", "0.05",
                      "--avg-min", "0.5"], id="averaged"),
        # 59,033 rows: several pieces of the default 2^14 hits
        pytest.param(["--mode", "isolated", "--grid", "0.3", "--steps", "10"],
                     id="isolated-default-pieces"),
    ])
    def test_piece_size_does_not_change_bytes(self, capsys, monkeypatch, argv):
        default = sweep._PIECE
        monkeypatch.setattr(sweep, "_PIECE", 1 << 16)
        whole = run(capsys, "search", *argv, "--workers", "1")
        assert len(body(whole[1]).splitlines()) > 1000
        for piece in (7, 50, default):
            monkeypatch.setattr(sweep, "_PIECE", piece)
            assert run(capsys, "search", *argv, "--workers", "1") == whole

    def test_a_search_holds_a_piece_of_text_at_a_time(self, tmp_path):
        # 59,033 rows, about 4.5 MB of text: a writer that held them all would trace more
        argv = ["search", "--mode", "isolated", "--grid", "0.3", "--steps", "10", "--workers", "1",
                "--out", str(tmp_path / "hits.csv")]
        assert main(argv) == 0  # warm-up: the parser and first-call set-up
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestEvolveBytes:
    """`evolve` writes, byte for byte, what `_lines` makes of the library's
    per-step records, down before up."""

    @pytest.mark.parametrize("outcome", ["up", "down", "both"])
    @pytest.mark.parametrize("steps", [1, 33, 300])
    def test_rows_are_the_lines_of_the_series(self, capsys, outcome, steps):
        argv = ["--coin", "general", "--rho", "0.62", "--theta", "0.8", "--eta", "2.3",
                "--alpha", "0.81", "--beta-arg", "1.9", "--outcome", outcome]
        code, out, _ = run(capsys, "evolve", *argv, "--steps", str(steps))
        assert code == 0
        coin = CoinOperator(rho=0.62, theta=0.8, eta=2.3)
        shift = ShiftOperator(alpha=0.81, beta_arg=1.9)
        spins = [Spin.DOWN, Spin.UP] if outcome == "both" else [Spin(outcome)]
        # the library's series needs two steps; step 1 of a longer walk is the same
        series = [walk_entanglement_series(coin, shift, max(steps, 2), s)[:steps] for s in spins]
        rows = [
            (r.step, r.outcome, r.probability, r.term_count, r.entropy, r.normalized)
            for records in zip(*series)
            for r in records
        ]
        assert len(rows) == steps * len(spins)
        assert body(out) == "".join(text for text, _ in cli._lines(rows))

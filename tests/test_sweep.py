import numpy as np
import pytest

import tandemwalk.sweep as sweep
from tandemwalk import (
    BALANCED_ALPHA,
    CoinFamily,
    SearchMode,
    Spin,
    SweepMode,
    SweepSpec,
    evolve,
    find_max_cases,
    grid_axis,
    grid_search,
    measure_spin,
    normalized_entanglement,
    sweep_1d,
)
from tandemwalk.sweep import PARAM_RANGES, MaxEntanglementHit, _averaged, family_coin
from tandemwalk.core import (
    CoinOperator,
    ShiftOperator,
    coin_matrices,
    collapse_metrics,
    shift_matrices,
    walk_batch,
)

from test_core import reference_walk


class TestGridAxis:
    def test_closed_range_includes_appended_endpoint(self):
        theta = grid_axis("theta", 0.1)
        assert theta[0] == 0.0
        assert theta[-1] == np.pi  # 0.1 steps never land on pi
        assert theta.size == 33

    def test_periodic_range_excludes_two_pi(self):
        phases = grid_axis("beta_arg", 0.1)
        assert phases[-1] < 2 * np.pi
        assert phases.size == 63

    def test_unit_range(self):
        alpha = grid_axis("alpha", 0.2)
        assert np.allclose(alpha, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown"):
            grid_axis("gamma", 0.1)

    def test_rounding_never_overshoots_the_range(self):
        # three steps of this size end 3.3e-11 above 1, where sqrt(1 - rho) is NaN
        rho = grid_axis("rho", 0.3333333333444444)
        assert rho[-1] == 1.0
        assert np.all(np.diff(rho) > 0)
        assert np.all(np.isfinite(coin_matrices(rho, 0.0, 0.0)))


class TestSweepSpec:
    def test_rejects_out_of_domain_range(self):
        with pytest.raises(ValueError, match="domain"):
            SweepSpec(CoinFamily.HADAMARD, "alpha", 0.0, 1.5, 0.1, 10)

    def test_rejects_coin_parameter_sweep_for_named_coin(self):
        with pytest.raises(ValueError, match="fixed"):
            SweepSpec(CoinFamily.KEMPE, "rho", 0.0, 1.0, 0.1, 10)

    def test_rejects_unknown_fixed_key(self):
        with pytest.raises(ValueError, match="unknown fixed"):
            SweepSpec(
                CoinFamily.HADAMARD, "alpha", 0.0, 1.0, 0.5, 10, fixed={"gamma": 1.0}
            )

    def test_values_include_balanced_point(self):
        spec = SweepSpec(
            CoinFamily.HADAMARD, "alpha", 0.0, 1.0, 0.25, 10
        )
        values = spec.values()
        assert BALANCED_ALPHA in values
        assert values.size == 6
        assert np.all(np.diff(values) > 0)

    def test_balanced_point_only_inserted_inside_the_range(self):
        outside = SweepSpec(
            CoinFamily.HADAMARD, "alpha", 0.3, 0.3, 0.005, 10
        )
        assert list(outside.values()) == [0.3]
        above = SweepSpec(
            CoinFamily.HADAMARD, "alpha", 0.8, 1.0, 0.1, 10
        )
        assert BALANCED_ALPHA not in above.values()

    def test_degenerate_single_value_range(self):
        spec = SweepSpec(CoinFamily.HADAMARD, "alpha", 0.37, 0.37, 1.0, 10)
        assert list(spec.values()) == [0.37]

    @pytest.mark.parametrize(
        "swept, start, stop, step", [("theta", 0.2, 3.0, 0.2), ("rho", 0.09, 1.0, 0.07)]
    )
    def test_rounding_never_leaves_the_range(self, swept, start, stop, step):
        # 0.2 + 14 * 0.2 and 0.09 + 13 * 0.07 both land one ulp above stop
        values = SweepSpec(CoinFamily.GENERAL, swept, start, stop, step, 4).values()
        assert values[0] == start and values[-1] == stop
        assert np.all(np.diff(values) > 0)

    def test_typed_decimal_ranges_end_exactly_at_stop(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            swept = str(rng.choice(list(PARAM_RANGES)))
            lo, hi, _ = PARAM_RANGES[swept]
            step = round(rng.uniform(0.01, 0.2), 3)
            start = round(rng.uniform(lo, lo + 0.5), 2)
            stop = round(start + ((hi - start - 1e-3) // step) * step, 3)  # on the typed grid
            values = SweepSpec(CoinFamily.GENERAL, swept, start, stop, step, 4).values()
            assert start <= values[0] and values[-1] == stop, (swept, start, stop, step)
            assert np.all(np.diff(values) > 0)

    def test_beta_arg_range_ends_at_stop_unless_it_reaches_two_pi(self):
        partial = SweepSpec(CoinFamily.HADAMARD, "beta_arg", 0.0, 3.0, 0.7, 4).values()
        assert np.array_equal(partial, [*(0.7 * np.arange(5)), 3.0])
        full = SweepSpec(CoinFamily.HADAMARD, "beta_arg", 0.0, 2 * np.pi, 0.7, 4).values()
        assert np.array_equal(full, 0.7 * np.arange(9))  # 2 pi is the phase 0


class TestSweep1d:
    def test_averaged_rows_and_determinism(self):
        spec = SweepSpec(
            CoinFamily.HADAMARD,
            "alpha",
            0.6,
            0.8,
            0.1,
            30,
            fixed={"beta_arg": 0.0},
        )
        header, rows = sweep_1d(spec)
        assert header == ["alpha", "outcome", "avg_E_30"]
        assert len(rows) == 4 * 2  # 3 grid points + balanced, 2 outcomes
        header2, rows2 = sweep_1d(spec)
        assert rows == rows2

    def test_balanced_insertion_gives_exact_zero(self):
        spec = SweepSpec(
            CoinFamily.HADAMARD,
            "alpha",
            0.7,
            0.72,
            0.02,
            40,
            fixed={"beta_arg": 0.0},
        )
        _, rows = sweep_1d(spec)
        balanced_rows = [r for r in rows if r[0] == BALANCED_ALPHA]
        assert balanced_rows and all(r[2] == 0.0 for r in balanced_rows)
        others = [r for r in rows if r[0] != BALANCED_ALPHA and r[1] == "down"]
        assert all(r[2] > 0.9 for r in others)

    def test_alpha_sweep_contains_exact_balanced_point(self):
        spec = SweepSpec(
            CoinFamily.HADAMARD, "alpha", 0.5, 1.0, 0.25, 8, mode=SweepMode.PER_STEP
        )
        _, rows = sweep_1d(spec)
        balanced = [r for r in rows if r[0] == BALANCED_ALPHA]
        assert len(balanced) == 2 * 8
        for _, outcome, _, p, n_terms, e_bits, cal in balanced:
            assert e_bits == 0.0 and cal == 0.0  # a product-state chain
            assert n_terms == (0 if outcome == "down" else 1)
            if outcome == "down":
                assert p == 0.0

    def test_general_coin_needs_every_coin_parameter(self):
        spec = SweepSpec(
            CoinFamily.GENERAL, "alpha", 0.0, 1.0, 0.5, 4, fixed={"rho": 0.5, "eta": 0.2}
        )
        with pytest.raises(ValueError, match="rho, theta and eta"):
            sweep_1d(spec)

    def test_per_step_rows(self):
        spec = SweepSpec(
            CoinFamily.Z,
            "beta_arg",
            0.0,
            1.0,
            0.5,
            5,
            fixed={"alpha": 0.6},
            outcomes=(Spin.DOWN,),
            mode=SweepMode.PER_STEP,
        )
        header, rows = sweep_1d(spec)
        assert header == ["beta_arg", "outcome", "step", "P", "N", "E_bits", "normalized_E"]
        assert len(rows) == 3 * 5
        steps = [r[2] for r in rows[:5]]
        assert steps == [1, 2, 3, 4, 5]

    def test_z_flat_across_phase(self):
        spec = SweepSpec(
            CoinFamily.Z, "beta_arg", 0.0, 6.2, 0.62, 60, fixed={"alpha": 0.6}
        )
        _, rows = sweep_1d(spec)
        for outcome in ("down", "up"):
            vals = [r[2] for r in rows if r[1] == outcome]
            assert max(vals) - min(vals) < 1e-9


class TestChunking:
    """Chunk boundaries change no sweep row and no catalog hit."""

    @staticmethod
    def small_chunks(monkeypatch):
        """Make every scan cut 7-point chunks; return the n_steps it sized them for."""
        calls = []
        monkeypatch.setattr(sweep, "_auto_chunk", lambda n_steps: calls.append(n_steps) or 7)
        return calls

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_sweep_rows(self, monkeypatch, mode):
        spec = SweepSpec(
            CoinFamily.KEMPE, "alpha", 0.0, 1.0, 0.04, 12, fixed={"beta_arg": 0.3}, mode=mode
        )
        whole = sweep_1d(spec)
        calls = self.small_chunks(monkeypatch)
        assert sweep_1d(spec) == whole
        assert calls == [12]

    def test_catalog_hits(self, monkeypatch):
        whole = find_max_cases(CoinFamily.Z, n_max=6, p_threshold=0.15)
        calls = self.small_chunks(monkeypatch)
        assert find_max_cases(CoinFamily.Z, n_max=6, p_threshold=0.15) == whole
        assert calls == [6] and len(whole) > 7


class TestBatchEngine:
    def test_matches_single_walk_engine(self):
        rng = np.random.default_rng(53)
        size = 40
        params = [
            rng.uniform(0, 1, size),
            rng.uniform(0, np.pi, size),
            rng.uniform(0, np.pi, size),
            rng.uniform(0, 1, size),
            rng.uniform(0, 2 * np.pi, size),
        ]
        u, v = coin_matrices(*params[:3]), shift_matrices(*params[3:])
        batch = {a: collapse_metrics(amps) for a, amps in walk_batch(u, v, 8)}
        for i in range(size):
            coin = CoinOperator(rho=params[0][i], theta=params[1][i], eta=params[2][i])
            shift = ShiftOperator(alpha=params[3][i], beta_arg=params[4][i])
            single = {
                a: collapse_metrics(amps)
                for a, amps in walk_batch(coin.matrix()[None], shift.matrix()[None], 8)
            }
            for a in range(1, 9):
                expected = reference_walk(coin.matrix(), shift.alpha, shift.beta, a)
                for outcome in Spin:
                    got = [column[outcome.row, i] for column in batch[a]]
                    one = [column[outcome.row, 0] for column in single[a]]
                    assert got[1] == one[1]
                    assert np.allclose(got, one, rtol=0, atol=1e-12)
                    terms = np.array(
                        [x for (spin, _), x in sorted(expected.items(), key=lambda kv: kv[0][1])
                         if spin is outcome]
                    )
                    prob = float(np.sum(np.abs(terms) ** 2))
                    weights = np.abs(terms) ** 2 / prob
                    n_terms = int(np.count_nonzero(np.sqrt(weights) > 1e-10))
                    nonzero = weights[weights > 0]
                    e_bits = float(-(nonzero * np.log2(nonzero)).sum())
                    cal = min(e_bits / np.log2(n_terms), 1.0) if n_terms >= 2 else 0.0
                    assert abs(got[0] - prob) < 1e-12
                    assert got[1] == n_terms
                    assert abs(got[2] - e_bits) < 1e-10
                    assert abs(got[3] - cal) < 1e-10


class TestGridSearch:
    def test_isolated_hits_on_a_coarse_grid(self):
        hits = list(
            grid_search(grid_step=0.5, n_steps=6, mode=SearchMode.ISOLATED_MAX)
        )
        assert hits
        assert all(2 <= h.step <= 4 for h in hits)

    def test_hits_revalidate_standalone(self):
        hits = list(
            grid_search(grid_step=0.5, n_steps=6, mode=SearchMode.ISOLATED_MAX)
        )
        for hit in hits[:40]:
            coin = CoinOperator(rho=hit.rho, theta=hit.theta, eta=hit.eta)
            shift = ShiftOperator(alpha=hit.alpha, beta_arg=hit.beta_arg)
            result = measure_spin(evolve(coin, shift, hit.step), hit.outcome)
            assert abs(result.probability - hit.probability) < 1e-9
            assert result.term_count == hit.term_count
            value = normalized_entanglement(result.amps, result.term_count)
            assert abs(value - hit.normalized) < 1e-9
            assert value > 1 - 1e-9

    def test_worker_count_does_not_change_output(self):
        serial = list(
            grid_search(grid_step=0.5, n_steps=5, mode=SearchMode.ISOLATED_MAX, workers=1)
        )
        parallel = list(
            grid_search(grid_step=0.5, n_steps=5, mode=SearchMode.ISOLATED_MAX, workers=2)
        )
        assert serial == parallel

    def test_pool_of_two_matches_serial(self):
        serial = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=1))
        pooled = list(
            grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=2, chunk_size=2000)
        )
        assert serial == pooled

    def test_chunk_size_does_not_change_output(self):
        small = list(
            grid_search(
                grid_step=0.5, n_steps=5, mode=SearchMode.ISOLATED_MAX, chunk_size=17
            )
        )
        large = list(
            grid_search(
                grid_step=0.5, n_steps=5, mode=SearchMode.ISOLATED_MAX, chunk_size=100000
            )
        )
        assert small == large

    def test_averaged_mode_returns_no_easy_hits(self):
        hits = list(
            grid_search(grid_step=0.5, n_steps=12, mode=SearchMode.AVERAGED_HIGH)
        )
        assert hits == []

    def test_pool_size_capped_by_task_count(self, monkeypatch):
        import multiprocessing

        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks):
                return map(fn, tasks)

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context", lambda: FakeContext())
        serial = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=1))
        # 7488 grid points in chunks of 2000 make four tasks
        capped = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=64, chunk_size=2000))
        assert started == [4]
        two = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=2, chunk_size=2000))
        assert started == [4, 2]
        single_task = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=8))
        assert started == [4, 2]  # one chunk: no pool at all
        assert serial == capped == two == single_task

    def test_worker_count_validated(self):
        for workers in (0, -4):
            with pytest.raises(ValueError, match="workers"):
                list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=workers))

    def test_thresholds_validated(self):
        with pytest.raises(ValueError, match="p_threshold"):
            list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, p_threshold=0.0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_steps": 1}, "n_steps"),
            ({"p_threshold": 5.0}, "p_threshold"),
            ({"workers": 0}, "workers"),
        ],
    )
    def test_arguments_checked_on_call(self, kwargs, message):
        args = {"grid_step": 0.5, "n_steps": 5, "mode": SearchMode.ISOLATED_MAX, **kwargs}
        with pytest.raises(ValueError, match=message):
            grid_search(**args)  # no hit requested

    @pytest.mark.parametrize("avg_threshold", [1.0, 5.0, -0.1, float("nan")])
    def test_averaged_threshold_range_checked_on_call(self, avg_threshold):
        with pytest.raises(ValueError, match="avg_threshold"):
            grid_search(0.9, 4, SearchMode.AVERAGED_HIGH, avg_threshold=avg_threshold)
        # isolated mode has no average to bound
        grid_search(0.9, 4, SearchMode.ISOLATED_MAX, avg_threshold=avg_threshold)


class TestAveragedPruning:
    """Dropping walks mid-walk must leave the averaged hit list unchanged."""

    GRID, STEPS = 0.6, 60

    @pytest.fixture(scope="class")
    def reference(self):
        """Grid points and their unpruned (mean, min P, last N), one batch."""
        axes = [grid_axis(name, self.GRID) for name in PARAM_RANGES]
        points = [axis.ravel() for axis in np.meshgrid(*axes, indexing="ij")]
        u, v = coin_matrices(*points[:3]), shift_matrices(*points[3:])
        walks, mean, min_p, last_n = _averaged(u, v, self.STEPS)
        assert walks.tolist() == list(range(u.shape[0]))
        return points, mean, min_p, last_n

    def _expected(self, reference, p_threshold, avg_threshold):
        points, mean, min_p, last_n = reference
        hit = (mean > avg_threshold) & (min_p > p_threshold)
        return [
            MaxEntanglementHit(
                *(float(p[j]) for p in points), self.STEPS, Spin.UP if r == 0 else Spin.DOWN,
                float(mean[r, j]), float(min_p[r, j]), int(last_n[r, j]),
            )
            for j, r in zip(*np.nonzero(hit.T))
        ]

    def test_hits_equal_an_unpruned_run_at_the_edge_thresholds(self, reference):
        base = self._expected(reference, 0.15, 0.75)
        assert len(base) > 100
        means = [h.normalized for h in base]
        probs = [h.probability for h in base]
        thresholds = [
            (0.15, min(means) - 1e-15),
            (0.15, float(np.median(means))),
            (min(probs) - 1e-15, 0.75),
            (float(np.median(probs)), 0.75),
        ]
        for p_threshold, avg_threshold in thresholds:
            expected = self._expected(reference, p_threshold, avg_threshold)
            assert expected
            for chunk_size in (None, 997):
                for workers in (1, 2):
                    hits = list(grid_search(
                        self.GRID, self.STEPS, SearchMode.AVERAGED_HIGH,
                        p_threshold=p_threshold, avg_threshold=avg_threshold,
                        workers=workers, chunk_size=chunk_size,
                    ))
                    assert hits == expected, (p_threshold, avg_threshold, chunk_size, workers)

    def test_walks_leave_the_batch(self, reference):
        points, full, full_min_p, _ = reference
        u, v = coin_matrices(*points[:3]), shift_matrices(*points[3:])
        walks, mean, _, _ = _averaged(u, v, self.STEPS, 0.15, 0.999)
        assert walks.size == 0 and mean.shape == (2, 0)  # no point averages 0.999
        walks, mean, min_p, _ = _averaged(u, v, self.STEPS, 0.15, 0.75)
        assert 0 < walks.size < u.shape[0] // 2
        assert np.all(np.diff(walks) > 0)
        # no walk dropped had a row able to pass the hit rule
        dropped = np.setdiff1d(np.arange(u.shape[0]), walks)
        assert not np.any((full[:, dropped] > 0.75) & (full_min_p[:, dropped] > 0.15))
        assert np.array_equal(full[:, walks], mean)
        assert np.array_equal(full_min_p[:, walks], min_p)


class TestFindMaxCases:
    def test_z_coin_catalog(self):
        hits = find_max_cases(CoinFamily.Z, n_max=6, p_threshold=0.15)
        up_hits = [h for h in hits if h.outcome is Spin.UP]
        assert up_hits
        assert all(h.alpha == BALANCED_ALPHA and h.step == 2 for h in up_hits)
        assert all(abs(h.probability - 0.5) < 1e-6 for h in up_hits)
        down_steps = {h.step for h in hits if h.outcome is Spin.DOWN}
        assert down_steps == {2, 3, 4}

    def test_hadamard_down_hits_everywhere_but_balanced(self):
        alphas = [0.2, 0.5, 0.8, BALANCED_ALPHA]
        hits = find_max_cases(
            CoinFamily.HADAMARD,
            n_max=2,
            p_threshold=1e-6,
            alpha_values=alphas,
            beta_arg_values=[0.0],
        )
        down = {h.alpha for h in hits if h.outcome is Spin.DOWN}
        assert down == {0.2, 0.5, 0.8}  # the balanced walk never yields down

    def test_hadamard_quarter_phase_catalog(self):
        hits = find_max_cases(
            CoinFamily.HADAMARD,
            n_max=10,
            p_threshold=0.15,
            alpha_values=[0.37],
            beta_arg_values=[np.pi / 2],
        )
        table = {(h.step, h.outcome): h for h in hits}
        assert set(table) == {
            (2, Spin.DOWN),
            (2, Spin.UP),
            (3, Spin.DOWN),
            (4, Spin.DOWN),
        }
        assert table[(3, Spin.DOWN)].term_count == 2
        assert table[(4, Spin.DOWN)].term_count == 4
        assert abs(table[(4, Spin.DOWN)].probability - 0.25) < 1e-9

    def test_no_late_hits_for_hadamard_quarter_phase(self):
        hits = find_max_cases(
            CoinFamily.HADAMARD,
            n_max=200,
            p_threshold=1e-9,
            alpha_values=[0.37],
            beta_arg_values=[np.pi / 2],
        )
        assert {h.step for h in hits} <= {2, 3, 4}

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_max": 1}, "n_steps"),
            ({"p_threshold": 5.0}, "p_threshold"),
            ({"alpha_values": [0.5, 1.5]}, "alpha"),
        ],
    )
    def test_arguments_checked(self, kwargs, message):
        args = {"n_max": 4, "p_threshold": 0.15, **kwargs}
        with pytest.raises(ValueError, match=message):
            find_max_cases(CoinFamily.HADAMARD, **args)

    def test_general_family_rejected(self):
        with pytest.raises(ValueError, match="grid_search"):
            find_max_cases(CoinFamily.GENERAL, n_max=5, p_threshold=0.2)

    def test_family_coin_requires_general_parameters(self):
        with pytest.raises(ValueError, match="general"):
            family_coin(CoinFamily.GENERAL)

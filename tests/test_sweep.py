import tracemalloc

import numpy as np
import pytest

import tandemwalk.core as core
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
from tandemwalk.entanglement import _averaged
from tandemwalk.sweep import PARAM_RANGES, MaxEntanglementHit, family_coin
from tandemwalk.core import (
    CoinOperator,
    ShiftOperator,
    _real_coins,
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

    @pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="grid step must be positive"):
            grid_axis("rho", step)
        with pytest.raises(ValueError, match="sweep step must be positive"):
            SweepSpec(CoinFamily.HADAMARD, "alpha", 0.0, 1.0, step, 4)

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

    def test_value_count_bounded_before_the_grid_is_built(self, monkeypatch):
        monkeypatch.setattr(sweep, "_axis", lambda *args: pytest.fail("grid built"))
        tracemalloc.start()
        try:
            # the bound counts grid steps, (stop - start) / step, not values
            with pytest.raises(ValueError, match=r"^sweep step 1e-09 spans more than 10\^7 grid steps$"):
                SweepSpec(CoinFamily.HADAMARD, "alpha", 0.0, 1.0, 1e-9, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        SweepSpec(CoinFamily.HADAMARD, "alpha", 0.0, 1.0, 1e-7, 2)  # 10^7 grid steps: allowed

    def test_per_step_row_count_bounded_before_the_grid_is_built(self, monkeypatch):
        """200 steps of both outcomes at step 1e-5 would hold 4 x 10^7 rows."""
        monkeypatch.setattr(sweep, "_axis", lambda *args: pytest.fail("grid built"))
        per_step = {"mode": SweepMode.PER_STEP}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="40,000,800 rows"):
                SweepSpec(CoinFamily.HADAMARD, "alpha", 0.0, 1.0, 1e-5, 200, **per_step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        SweepSpec(CoinFamily.HADAMARD, "alpha", 0.0, 1.0, 1e-4, 200, **per_step)  # 4 x 10^6 rows
        SweepSpec(CoinFamily.HADAMARD, "alpha", 0.0, 1.0, 1e-7, 200)  # averaged, 10^7 values

    @pytest.mark.parametrize("swept, start, stop, step", [
        ("rho", 0.0, 1.0, 0.25),  # stop on the grid
        ("theta", 0.1, 3.0, 0.7),  # stop off the grid, appended
        ("beta_arg", 0.0, 2 * np.pi, 0.7),  # open at 2 pi
        ("alpha", 0.0, 1.0, 1 / 99999.5),  # stop and the balanced alpha appended
        ("alpha", BALANCED_ALPHA, 1.0, 0.01),  # the balanced alpha on the grid
    ])
    def test_counted_size_is_the_value_count(self, swept, start, stop, step):
        spec = SweepSpec(CoinFamily.GENERAL, swept, start, stop, step, 2)
        assert spec._size() == len(spec.values())

    def test_per_step_rows_count_every_value(self):
        # 100,000 grid values below stop, then stop and the balanced alpha: 100,002 values
        with pytest.raises(ValueError, match="20,000,400 rows"):
            SweepSpec(CoinFamily.HADAMARD, "alpha", 0.0, 1.0, 1 / 99999.5, 100,
                      mode=SweepMode.PER_STEP)

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


class TestFanOutChunks:
    """`_fan_out` asks for its points' keys a chunk of whole beta_arg rows
    at a time, at most max(`_PIECE`, n_beta) points, in grid order."""

    @pytest.mark.parametrize("piece", [7, None])
    @pytest.mark.parametrize("grid", [0.6, 0.3])
    def test_key_calls_tile_the_grid_in_whole_rows(self, monkeypatch, grid, piece):
        if piece is not None:
            monkeypatch.setattr(sweep, "_PIECE", piece)
        axes = [grid_axis(name, grid) for name in PARAM_RANGES]
        shape = [axis.size for axis in axes]
        walk_axes, key, _ = sweep._key_walks(axes)
        calls = []

        def recording(subs):
            keys = key(subs)
            calls.append((np.ravel_multi_index(subs, shape).ravel(), keys.ravel()))
            return keys

        pieces = sweep._fan_out(
            axes, walk_axes, recording, 10, sweep._isolated_hits, 0.15, sweep.MAXIMAL_ATOL
        )
        assert sum(points.size for points, _, _ in pieces) > 0
        n_beta, start = shape[-1], 0
        for points, keys in calls:
            assert points.size % n_beta == 0
            assert 0 < points.size <= max(sweep._PIECE, n_beta)
            assert np.array_equal(points, np.arange(start, start + points.size))
            # the same keys as key's flat index arrays give
            assert np.array_equal(keys, key(np.unravel_index(points, shape)))
            start += points.size
        assert start == np.prod(shape)


class TestDistinctCoins:
    """A search walks each distinct real coin of its keys, or of its
    catalog points, once and hands its hits to every point of that coin."""

    SEARCHES = {
        "averaged": lambda: list(grid_search(0.92, 200, SearchMode.AVERAGED_HIGH, avg_threshold=0.75)),
        "isolated": lambda: list(grid_search(0.3, 10, SearchMode.ISOLATED_MAX)),
        "z-catalog": lambda: find_max_cases(CoinFamily.Z, n_max=12, p_threshold=0.15),
    }

    @staticmethod
    def walk_every_coin(monkeypatch):
        def every_point(axes):
            index = np.arange(np.prod([len(axis) for axis in axes]))
            return index, index

        monkeypatch.setattr(sweep, "_distinct_coins", every_point)

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_hits_equal_a_walk_per_coin(self, monkeypatch, search, chunk):
        if chunk is not None:  # the coins of a chunk of 7 keys or points are not all distinct
            monkeypatch.setattr(sweep, "_auto_chunk", lambda n_steps: chunk)
        distinct = self.SEARCHES[search]()
        assert len(distinct) > 100
        self.walk_every_coin(monkeypatch)
        assert self.SEARCHES[search]() == distinct

    @pytest.mark.parametrize("search", list(SEARCHES))
    def test_walk_batch_walks_the_distinct_coins(self, monkeypatch, search):
        batches, searched = [], []
        # the reducers step through core._padded_walk, in core._collapsed_blocks
        def spy(coins, v, n_steps, walk=core._padded_walk):
            batches.append(coins)
            return walk(coins, v, n_steps)

        def distinct_coins(axes, distinct=sweep._distinct_coins):
            index = np.arange(np.prod([len(axis) for axis in axes]))
            searched.append(_real_coins(*sweep._points(axes, index)))
            return distinct(axes)

        monkeypatch.setattr(core, "_padded_walk", spy)
        monkeypatch.setattr(sweep, "_distinct_coins", distinct_coins)
        expected = {"averaged": (126, 25), "isolated": (1050, 415), "z-catalog": (792, 38)}[search]
        for chunk in (None, 7):  # one chunk, then a search of several
            if chunk is not None:
                monkeypatch.setattr(sweep, "_auto_chunk", lambda n_steps: chunk)
            batches.clear()
            searched.clear()
            self.SEARCHES[search]()
            (points,) = searched  # keys, or catalog points
            coins, distinct = np.concatenate(batches), np.unique(points[:, 0], axis=0)
            assert points.shape[0] == expected[0]
            assert coins.shape[0] == len(distinct) == expected[1]
            assert len(batches) == -(-expected[1] // (chunk or expected[1]))
            # each distinct coin of the search walks once in all
            assert np.array_equal(np.unique(coins[:, 0], axis=0), distinct)

    @pytest.mark.parametrize("grid, n_steps, mode, coins", [
        (0.13, 64, SearchMode.ISOLATED_MAX, 4883),  # 7,938 keys
        (0.1, 100, SearchMode.AVERAGED_HIGH, 10185),  # 15,246 keys
    ])
    def test_chunks_count_distinct_coins(self, monkeypatch, grid, n_steps, mode, coins):
        tasks = []

        def no_walk(task):
            tasks.append(task[1:3])
            return task[1], [np.zeros(0, dtype=np.int64)]  # no hit

        monkeypatch.setattr(sweep, "_scan_chunk", no_walk)
        assert list(grid_search(grid, n_steps, mode, workers=1)) == []
        chunk = sweep._auto_chunk(n_steps)
        assert chunk == 4096
        assert tasks == [(start, min(start + chunk, coins)) for start in range(0, coins, chunk)]
        assert len(tasks) == {4883: 2, 10185: 3}[coins]

    def test_distinct_coins_and_inverse(self):
        # the z coin walks r = alpha
        alpha = np.array([0.8, 0.6, 0.8, 1.0, 0.6, 0.8])
        axes = [np.array([x]) for x in (1.0, 0.0, np.pi / 2)] + [alpha, np.array([0.0, np.pi])]
        first, inverse = sweep._distinct_coins(axes)
        coins = _real_coins(*sweep._points(axes, np.arange(12)))
        assert first.tolist() == [2, 0, 6]  # the first point of each coin, by (a, b)
        assert coins[first, 0, 0].tolist() == [0.6, 0.8, 1.0]
        assert np.array_equal(coins[first][inverse], coins)


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
            value = normalized_entanglement(result.amps)
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

    def test_pool_of_two_matches_serial(self, monkeypatch):
        serial = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=1))
        # the 35 coins of grid 0.5's 234 keys in chunks of 9 make four tasks, so a real pool runs
        monkeypatch.setattr(sweep, "_auto_chunk", lambda n_steps: 9)
        pooled = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=2))
        assert serial == pooled

    def test_chunk_size_does_not_change_output(self, monkeypatch):
        monkeypatch.setattr(sweep, "_auto_chunk", lambda n_steps: 17)
        small = list(grid_search(grid_step=0.5, n_steps=5, mode=SearchMode.ISOLATED_MAX))
        monkeypatch.setattr(sweep, "_auto_chunk", lambda n_steps: 100000)
        large = list(grid_search(grid_step=0.5, n_steps=5, mode=SearchMode.ISOLATED_MAX))
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
        # the 7488 grid points have 234 keys of 35 coins, whose walks in chunks of 9 make four tasks
        default_chunk = sweep._auto_chunk
        monkeypatch.setattr(sweep, "_auto_chunk", lambda n_steps: 9)
        capped = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=64))
        assert started == [4]
        two = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=2))
        assert started == [4, 2]
        monkeypatch.setattr(sweep, "_auto_chunk", default_chunk)
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

    def test_key_table_bounded_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(sweep, "_key_walks", lambda axes: pytest.fail("key table built"))
        tracemalloc.start()
        try:
            # at 1e-12 the beta_arg axis alone would take about 50 TB
            for grid, cells in [(0.01, "62,809,424"), (0.005, "498,903,300"),
                                (1e-12, f"{3141592653590**2 * 6283185307179:,}")]:
                with pytest.raises(ValueError, match=f"grid step {grid} gives {cells} "):
                    grid_search(grid, 2, SearchMode.ISOLATED_MAX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        built = []
        monkeypatch.setattr(sweep, "_key_walks", lambda axes: built.append(axes) or ([], None, 0))
        for grid, cells in [(0.05, 516_096), (0.02, 7_963_515)]:  # allowed
            grid_search(grid, 2, SearchMode.AVERAGED_HIGH)
            _, theta, eta, _, beta_arg = built[-1]
            assert theta.size * eta.size * beta_arg.size == cells

    @pytest.mark.parametrize("maximal_atol", [-1.0, 0.0, 1.0, 5.0, float("nan")])
    def test_maximal_atol_range_checked_on_call(self, maximal_atol):
        # normalized E lies in [0, 1]: a tolerance of 1 or more calls product
        # states maximal, one of 0 or less finds nothing
        with pytest.raises(ValueError, match="maximal_atol"):
            grid_search(0.9, 4, SearchMode.ISOLATED_MAX, maximal_atol=maximal_atol)
        with pytest.raises(ValueError, match="maximal_atol"):
            find_max_cases(CoinFamily.Z, 4, 0.15, maximal_atol=maximal_atol)


class TestAveragedPruning:
    """Dropping walks mid-walk must leave the averaged hit list unchanged."""

    GRID, STEPS = 0.6, 60

    @pytest.fixture(scope="class")
    def reference(self):
        """Grid points, their keys, and the key walks' real coins, as the
        search walks them, and unpruned (mean, min P, last N), one batch."""
        axes = [grid_axis(name, self.GRID) for name in PARAM_RANGES]
        (rho, rest), key, n_keys = sweep._key_walks(axes)
        walks = [np.repeat(rho, len(rest)), *np.tile(rest, (rho.size, 1)).T]
        coins = _real_coins(*walks)
        index, mean, min_p, last_n = _averaged(coins, self.STEPS)
        assert index.tolist() == list(range(n_keys))
        shape = [axis.size for axis in axes]
        subs = np.unravel_index(np.arange(np.prod(shape)), shape)
        points = [axis[sub] for axis, sub in zip(axes, subs)]
        return points, key(subs), coins, mean, min_p, last_n

    def _expected(self, reference, p_threshold, avg_threshold):
        """The hit rule applied to every grid point's key walk, in grid order."""
        points, keys, _, mean, min_p, last_n = reference
        mean, min_p, last_n = mean[:, keys], min_p[:, keys], last_n[:, keys]
        hit = (mean > avg_threshold) & (min_p > p_threshold)
        return [
            MaxEntanglementHit(
                *(float(p[j]) for p in points), self.STEPS, Spin.UP if r == 0 else Spin.DOWN,
                float(mean[r, j]), float(min_p[r, j]), int(last_n[r, j]),
            )
            for j, r in zip(*np.nonzero(hit.T))
        ]

    def test_hits_equal_an_unpruned_run_at_the_edge_thresholds(self, reference, monkeypatch):
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
        default_chunk = sweep._auto_chunk
        for p_threshold, avg_threshold in thresholds:
            expected = self._expected(reference, p_threshold, avg_threshold)
            assert expected
            for chunk_size in (None, 13):  # the 35 coins of 198 keys: one chunk, then three
                chunk = default_chunk if chunk_size is None else lambda n_steps: chunk_size
                monkeypatch.setattr(sweep, "_auto_chunk", chunk)
                for workers in (1, 2):
                    hits = list(grid_search(
                        self.GRID, self.STEPS, SearchMode.AVERAGED_HIGH,
                        p_threshold=p_threshold, avg_threshold=avg_threshold,
                        workers=workers,
                    ))
                    assert hits == expected, (p_threshold, avg_threshold, chunk_size, workers)

    def test_walks_leave_the_batch(self, reference):
        _, _, coins, full, full_min_p, _ = reference
        walks, mean, _, _ = _averaged(coins, self.STEPS, 0.15, 0.999)
        assert walks.size == 0 and mean.shape == (2, 0)  # no walk averages 0.999
        walks, mean, min_p, _ = _averaged(coins, self.STEPS, 0.15, 0.75)
        assert 0 < walks.size < coins.shape[0] // 2
        assert np.all(np.diff(walks) > 0)
        # no walk dropped had a row able to pass the hit rule
        dropped = np.setdiff1d(np.arange(coins.shape[0]), walks)
        assert not np.any((full[:, dropped] > 0.75) & (full_min_p[:, dropped] > 0.15))
        assert np.array_equal(full[:, walks], mean)
        assert np.array_equal(full_min_p[:, walks], min_p)


class TestKeyedSearch:
    """One walk per key finds the hits of a walk per grid point.

    The equality tests put their thresholds 1e-15 below a hit's value, at
    the lowest and the median one.  Exactly at a value the hit sets can
    differ: points of one key reach it with floats an ulp apart in a walk
    per point, so that scan puts some on each side, while the keyed scan
    decides the key as a whole; the threshold-at-a-value tests pin that.
    """

    STEPS = 10

    @pytest.fixture(scope="class", params=[0.6, 0.3, 0.2])
    def per_point(self, request):
        """The grid's points, the (point, step, row, normalized E, P, N) of
        every collapse near maximal with P above 0.1, and every point's
        (mean, min P, last N) as the averaged search defines them, from one
        walk per point."""
        grid, n = request.param, self.STEPS
        axes = [grid_axis(name, grid) for name in PARAM_RANGES]
        points = [axis.ravel() for axis in np.meshgrid(*axes, indexing="ij")]
        near, averaged = [], []
        for lo in range(0, points[0].size, 1 << 15):
            chunk = [p[lo:lo + (1 << 15)] for p in points]
            u, v = coin_matrices(*chunk[:3]), shift_matrices(*chunk[3:])
            total, min_p = 0.0, 1.0
            for a, amps in walk_batch(u, v, n):
                if a < 2:
                    continue
                metrics = collapse_metrics(amps)
                total, min_p = total + metrics.normalized, np.minimum(min_p, metrics.probability)
                found = (metrics.normalized > 1 - 1e-6) & (metrics.probability > 0.1)
                rows, walks = np.nonzero(found)
                near.append(np.column_stack([
                    lo + walks, np.full(walks.size, a), rows, metrics.normalized[found],
                    metrics.probability[found], metrics.term_count[found],
                ]))
            averaged.append(np.stack([total / (n - 1), min_p, metrics.term_count]))
        near = np.concatenate(near)
        near = near[np.lexsort(near[:, 2::-1].T)]
        return grid, points, near, np.concatenate(averaged, axis=2)

    @staticmethod
    def columns(points, j, step, row, normalized, probability, term_count):
        """The ten hit columns, as tuples, from the point index, step, row
        and metrics of each hit."""
        spins = tuple(Spin.UP if r == 0 else Spin.DOWN for r in row.tolist())
        return [
            *(tuple(p[j].tolist()) for p in points), tuple(step.astype(int).tolist()), spins,
            tuple(normalized.tolist()), tuple(probability.tolist()),
            tuple(term_count.astype(int).tolist()),
        ]

    @staticmethod
    def assert_same_hits(hits, expected):
        """Points, steps, outcomes and N equal, normalized E and P to 1e-12."""
        assert expected[0]
        got = list(zip(*hits))
        assert got[:7] == expected[:7] and got[9] == expected[9]
        assert np.abs(np.subtract(got[7:9], expected[7:9])).max() <= 1e-12

    def test_isolated_hits(self, per_point):
        grid, points, near, _ = per_point

        def expected(p_threshold, maximal_atol):
            rows = near[(near[:, 3] > 1 - maximal_atol) & (near[:, 4] > p_threshold)]
            return self.columns(points, rows[:, 0].astype(int), *rows[:, 1:].T)

        *_, norms, probs, _ = expected(0.15, sweep.MAXIMAL_ATOL)
        for p_threshold, maximal_atol in [
            (0.15, sweep.MAXIMAL_ATOL),
            (min(probs) - 1e-15, sweep.MAXIMAL_ATOL),
            (float(np.median(probs)) - 1e-15, sweep.MAXIMAL_ATOL),
            (0.15, 1 - min(norms) + 1e-15),
        ]:
            hits = grid_search(grid, self.STEPS, SearchMode.ISOLATED_MAX,
                               p_threshold=p_threshold, maximal_atol=maximal_atol)
            self.assert_same_hits(list(hits), expected(p_threshold, maximal_atol))

    @staticmethod
    def count_split_keys(grid, hits, threshold, j, step, row, value):
        """Check the keyed hits of a threshold at a value against the walk
        per point's (point, step, row) hits j, step, row with their value
        of the thresholded metric: the keyed hits take every (key, step,
        outcome) whole and match on each one the walk per point keeps
        whole; the walk per point splits one only where its hits' values
        round just above the threshold.  Returns how many it splits."""
        axes = [grid_axis(name, grid) for name in PARAM_RANGES]
        shape = [axis.size for axis in axes]
        _, key, n_keys = sweep._key_walks(axes)
        keys = key(np.unravel_index(np.arange(np.prod(shape)), shape))
        size = np.bincount(keys, minlength=n_keys)

        def groups(j, step, row):
            return np.unique(np.column_stack([keys[j], step, row]), axis=0,
                             return_inverse=True, return_counts=True)

        got = list(zip(*hits))
        point = np.ravel_multi_index([np.searchsorted(a, c) for a, c in zip(axes, got[:5])], shape)
        keyed, _, keyed_count = groups(point, got[5], [spin.row for spin in got[6]])
        assert np.array_equal(keyed_count, size[keyed[:, 0]])
        found, inverse, count = groups(j, step, row)
        split = count < size[found[:, 0]]
        assert np.all(value[split[inverse.ravel()]] <= threshold + 1e-15)
        whole = set(map(tuple, found[~split].tolist()))
        assert set(map(tuple, keyed.tolist())) - set(map(tuple, found[split].tolist())) == whole
        return int(split.sum())

    def test_isolated_threshold_at_a_value(self, per_point):
        grid, _, near, _ = per_point
        maximal = near[near[:, 3] > 1 - sweep.MAXIMAL_ATOL]
        # the threshold is a value of the real walk that the search runs
        base = list(grid_search(grid, self.STEPS, SearchMode.ISOLATED_MAX, p_threshold=0.15))
        p_threshold = float(np.median([hit.probability for hit in base]))
        rows = maximal[maximal[:, 4] > p_threshold]
        hits = list(grid_search(grid, self.STEPS, SearchMode.ISOLATED_MAX, p_threshold=p_threshold))
        j, step, row = rows[:, :3].astype(int).T
        assert self.count_split_keys(grid, hits, p_threshold, j, step, row, rows[:, 4]) > 0

    def test_averaged_threshold_at_a_value(self, per_point):
        grid, _, _, (mean, min_p, _) = per_point
        hit = (mean > 0.75) & (min_p > 0.15)
        median_mean, median_p, split = float(np.median(mean[hit])), float(np.median(min_p[hit])), 0
        for p_threshold, avg_threshold, metric, threshold in [
            (0.15, median_mean, mean, median_mean),
            (median_p, 0.75, min_p, median_p),
        ]:
            j, r = np.nonzero(((mean > avg_threshold) & (min_p > p_threshold)).T)
            hits = list(grid_search(grid, self.STEPS, SearchMode.AVERAGED_HIGH,
                                    p_threshold=p_threshold, avg_threshold=avg_threshold))
            steps = np.full(j.size, self.STEPS)
            split += self.count_split_keys(grid, hits, threshold, j, steps, r, metric[r, j])
        assert split > 0

    def test_averaged_hits(self, per_point):
        grid, points, _, (mean, min_p, last_n) = per_point

        def expected(p_threshold, avg_threshold):
            j, r = np.nonzero(((mean > avg_threshold) & (min_p > p_threshold)).T)
            steps = np.full(j.size, self.STEPS)
            return self.columns(points, j, steps, r, mean[r, j], min_p[r, j], last_n[r, j])

        *_, means, probs, _ = expected(0.15, 0.75)
        for p_threshold, avg_threshold in [
            (0.15, min(means) - 1e-15),
            (0.15, float(np.median(means)) - 1e-15),
            (min(probs) - 1e-15, 0.75),
            (float(np.median(probs)) - 1e-15, 0.75),
        ]:
            hits = grid_search(grid, self.STEPS, SearchMode.AVERAGED_HIGH,
                               p_threshold=p_threshold, avg_threshold=avg_threshold)
            self.assert_same_hits(list(hits), expected(p_threshold, avg_threshold))


class TestEqualKeys:
    """Points of one key walk alike, so one walk stands for them all."""

    @pytest.mark.parametrize("grid, seed", [(0.1, 5), (0.05, 6)])
    def test_members_walk_like_the_first(self, grid, seed):
        axes = [grid_axis(name, grid) for name in PARAM_RANGES]
        rho, theta, eta, alpha, beta_arg = axes
        end = np.arange(theta.size) == theta.size - 1  # the appended pi
        lattice = np.where(end, 0, np.arange(theta.size))
        shape = (theta.size, eta.size, beta_arg.size)
        t, e, b = (x.ravel() for x in np.indices(shape))
        m, c = b - lattice[t] - lattice[e], end[t].astype(int) + end[e]
        rng = np.random.default_rng(seed)
        fold = (c == 0) & (m < 0) & np.isin(-m, m[c == 0])
        # per class: its first and some other (theta, eta, beta_arg) triples,
        # as flat indices, then a rho index and an alpha index
        walks = []
        for seeds in (c == 1, c == 2, fold):
            seed_member = rng.choice(np.flatnonzero(seeds))
            same = (np.abs(m) == abs(m[seed_member])) & (c % 2 == c[seed_member] % 2)
            same = np.flatnonzero(same)
            members = np.union1d(seed_member, rng.choice(same, min(5, same.size), replace=False))
            if seeds is fold:  # m of both signs, joined only by |m|
                assert np.any(m[members] > 0) and np.any(m[members] < 0)
            walks.append((same[0], members, *rng.integers([rho.size, alpha.size])))
        (_, rest), key, _ = sweep._key_walks(axes)
        subs, owner = [], []
        for representative, members, i, k in walks:
            t, e, b = np.unravel_index(np.append(representative, members), shape)
            group = (np.full(t.size, i), t, e, np.full(t.size, k), b)
            keys = key(group)
            assert np.all(keys == keys[0])
            # the search walks the key at its first point in grid order
            first = [theta[t[0]], eta[e[0]], alpha[k], beta_arg[b[0]]]
            assert np.array_equal(rest[keys[0] % len(rest)], first)
            owner += [len(owner)] * t.size
            subs.append(group)
        params = [axis[np.concatenate(sub)] for axis, sub in zip(axes, zip(*subs))]
        u, v = coin_matrices(*params[:3]), shift_matrices(*params[3:])
        for _, amps in walk_batch(u, v, 200):
            metrics = collapse_metrics(amps)
            assert np.array_equal(metrics.term_count, metrics.term_count[:, owner])
            for column in (metrics.probability, metrics.entropy, metrics.normalized):
                assert np.abs(column - column[:, owner]).max() <= 1e-12


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

    def test_each_point_cataloged_once(self):
        # 2 pi reduces to 0.0, so the distinct points are [0.3] x [0.0, 1.0]
        hits = find_max_cases(
            CoinFamily.KEMPE, 6, 0.15, alpha_values=[0.3, 0.3], beta_arg_values=[0.0, 2 * np.pi, 1.0]
        )
        assert len(hits) == 5
        assert hits == find_max_cases(
            CoinFamily.KEMPE, 6, 0.15, alpha_values=[0.3], beta_arg_values=[0.0, 1.0]
        )

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

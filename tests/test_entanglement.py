import numpy as np
import pytest

from tandemwalk import (
    CoinFamily,
    CoinOperator,
    SearchMode,
    ShiftOperator,
    Spin,
    SweepSpec,
    averaged_entanglement,
    balanced_shift,
    entropy,
    find_max_cases,
    grid_axis,
    grid_search,
    hadamard_coin,
    kempe_coin,
    measure_spin,
    normalized_entanglement,
    psi_down_2,
    sweep_1d,
    term_count,
    walk_entanglement_series,
    z_coin,
)
import tandemwalk.core as core
import tandemwalk.sweep as sweep
from tandemwalk.core import _padded_walk, _real_coins, collapse_metrics, walk_batch
from tandemwalk.entanglement import _averaged, _metric_series
from tandemwalk.sweep import PARAM_RANGES

# -(0.8 log2 0.8 + 0.2 log2 0.2), evaluated directly from the formula
ENTROPY_08_02 = 0.7219280948873623


class TestEntropy:
    def test_uniform_four_terms(self):
        amps = np.full(4, 0.5, dtype=complex)
        assert abs(entropy(amps) - 2.0) < 1e-12

    def test_single_term(self):
        assert entropy(np.array([1.0 + 0j])) == 0.0

    def test_two_term_value_against_hand_sum(self):
        amps = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)
        assert abs(entropy(amps) - ENTROPY_08_02) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            entropy(np.array([1.0, 0.5], dtype=complex))

    def test_zero_entries_contribute_nothing(self):
        amps = np.array([np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)], dtype=complex)
        assert abs(entropy(amps) - 1.0) < 1e-12

    def test_permutation_and_phase_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.normal(size=6) + 1j * rng.normal(size=6)
            amps = raw / np.linalg.norm(raw)
            reference = entropy(amps)
            shuffled = rng.permutation(amps)
            assert abs(entropy(shuffled) - reference) < 1e-12
            rotated = amps * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(entropy(rotated) - reference) < 1e-12

    def test_upper_bound_with_equality_iff_uniform(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 9)
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            amps = raw / np.linalg.norm(raw)
            assert entropy(amps) <= np.log2(n) + 1e-10
        uniform = np.full(5, np.sqrt(0.2), dtype=complex)
        assert abs(entropy(uniform) - np.log2(5)) < 1e-9


class TestNormalized:
    def test_two_equal_terms(self):
        amps = np.array([np.sqrt(0.5), -np.sqrt(0.5) * 1j])
        assert abs(normalized_entanglement(amps) - 1.0) < 1e-12

    def test_single_term_is_zero(self):
        assert normalized_entanglement(np.array([1.0 + 0j])) == 0.0

    def test_threshold_controls_term_count(self):
        amps = np.array([1.0, 1e-11], dtype=complex)
        amps = amps / np.linalg.norm(amps)
        assert term_count(amps) == 1
        assert normalized_entanglement(amps) == 0.0

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 9)
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            amps = raw / np.linalg.norm(raw)
            value = normalized_entanglement(amps)
            assert 0.0 <= value <= 1.0

    def test_hadamard_down_state_matches_closed_form_route(self):
        coin = hadamard_coin()
        shift = ShiftOperator(alpha=0.6)  # beta = 0.8 exactly
        closed = psi_down_2(coin, shift)
        from tandemwalk import evolve

        result = measure_spin(evolve(coin, shift, 2), Spin.DOWN)
        expected_amps = closed.normalized_amps()
        assert abs(entropy(expected_amps) - entropy(result.amps)) < 1e-12
        assert (
            abs(
                normalized_entanglement(expected_amps)
                - normalized_entanglement(result.amps)
            )
            < 1e-12
        )


class TestSeries:
    def test_first_step_is_always_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coin = CoinOperator(
                rho=rng.uniform(0, 1),
                theta=rng.uniform(0, np.pi),
                eta=rng.uniform(0, np.pi),
            )
            shift = ShiftOperator(alpha=rng.uniform(0, 1), beta_arg=rng.uniform(0, 2 * np.pi))
            for outcome in Spin:
                series = walk_entanglement_series(coin, shift, 2, outcome)
                assert series[0].normalized == 0.0

    def test_near_balanced_hadamard_pins_to_one(self):
        series = walk_entanglement_series(
            hadamard_coin(), ShiftOperator(alpha=0.7071), 200, Spin.DOWN
        )
        assert min(r.normalized for r in series[1:]) > 0.999

    def test_kempe_alternation_near_balanced(self):
        # just off the balanced point, where the walk instead degenerates
        shift = ShiftOperator(alpha=0.7071067812, beta_arg=np.pi / 2)
        series = walk_entanglement_series(kempe_coin(), shift, 40, Spin.DOWN)
        for record in series[1:]:
            if record.step % 2 == 0:
                assert record.normalized > 1 - 1e-9
                assert record.term_count == 2
            else:
                assert record.normalized == 0.0

    def test_probability_budget_across_outcomes(self):
        coin = CoinOperator(rho=0.31, theta=1.7, eta=0.2)
        shift = ShiftOperator(alpha=0.44, beta_arg=5.1)
        ups = walk_entanglement_series(coin, shift, 50, Spin.UP)
        downs = walk_entanglement_series(coin, shift, 50, Spin.DOWN)
        for up, down in zip(ups, downs):
            assert abs(up.probability + down.probability - 1.0) < 1e-12

    def test_zero_probability_records_are_flagged(self):
        series = walk_entanglement_series(hadamard_coin(), balanced_shift(), 10, Spin.DOWN)
        assert all(r.zero_probability for r in series)
        assert all(r.normalized == 0.0 for r in series)

    @pytest.mark.parametrize(
        "coin, shift",
        [(hadamard_coin(), balanced_shift(0.0)), (kempe_coin(), balanced_shift(3 * np.pi / 2))],
        ids=["hadamard-real", "kempe-3pi/2"],
    )
    def test_product_chains_stay_exact_for_800_steps(self, coin, shift):
        ups = walk_entanglement_series(coin, shift, 800, Spin.UP)
        downs = walk_entanglement_series(coin, shift, 800, Spin.DOWN)
        for up, down in zip(ups, downs):
            assert down.probability == 0.0
            assert up.entropy == down.entropy == 0.0
            assert up.normalized == down.normalized == 0.0
            # two ulp: the rounding of the balanced moduli, never growing
            assert abs(up.probability + down.probability - 1.0) <= 2 * np.finfo(float).eps

    def test_entropy_bounded_by_term_count(self):
        coin = CoinOperator(rho=0.62, theta=0.8, eta=2.3)
        shift = ShiftOperator(alpha=0.81, beta_arg=1.9)
        for outcome in Spin:
            for r in walk_entanglement_series(coin, shift, 60, outcome):
                if r.term_count >= 1:
                    assert r.entropy <= np.log2(max(r.term_count, 1)) + 1e-10

    def test_requires_two_steps(self):
        with pytest.raises(ValueError):
            walk_entanglement_series(hadamard_coin(), balanced_shift(), 1, Spin.UP)


class TestAveraged:
    def test_exactly_zero_at_balanced_hadamard(self):
        for outcome in Spin:
            avg = averaged_entanglement(hadamard_coin(), balanced_shift(), 200, outcome)
            assert avg.value == 0.0

    def test_kempe_independent_of_alpha_for_real_beta(self):
        values = {}
        for outcome in Spin:
            got = [
                averaged_entanglement(
                    kempe_coin(), ShiftOperator(alpha=a), 120, outcome
                ).value
                for a in (0.25, 0.61, 0.9)
            ]
            assert max(got) - min(got) < 1e-9
            values[outcome] = got[0]
        assert values[Spin.UP] != values[Spin.DOWN]

    def test_z_flat_in_beta_phase(self):
        got = [
            averaged_entanglement(
                z_coin(), ShiftOperator(alpha=0.6, beta_arg=b), 120, Spin.DOWN
            ).value
            for b in (0.0, 1.3, 2.9, 5.2)
        ]
        assert max(got) - min(got) < 1e-9

    def test_mean_of_series(self):
        coin = CoinOperator(rho=0.7, theta=0.4, eta=1.1)
        shift = ShiftOperator(alpha=0.3, beta_arg=0.8)
        series = walk_entanglement_series(coin, shift, 30, Spin.UP)
        avg = averaged_entanglement(coin, shift, 30, Spin.UP)
        assert abs(avg.value - np.mean([r.normalized for r in series[1:]])) < 1e-12
        assert 0.0 <= avg.value <= 1.0

    def test_equals_the_sweep_row_to_the_bit(self):
        """One walk and a sweep's batch run the same average."""
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho, theta, eta = (float(x) for x in rng.uniform(0, 1, 3) * [1, np.pi, np.pi])
            beta_arg = float(rng.uniform(0, 2 * np.pi))
            n = int(rng.integers(2, 60))
            fixed = {"rho": rho, "theta": theta, "eta": eta, "beta_arg": beta_arg}
            _, rows = sweep_1d(SweepSpec(CoinFamily.GENERAL, "alpha", 0.0, 1.0, 0.125, n, fixed))
            assert len(rows) == 2 * 10  # nine grid values and the balanced alpha
            coin = CoinOperator(rho=rho, theta=theta, eta=eta)
            for alpha, outcome, value in rows:
                shift = ShiftOperator(alpha=alpha, beta_arg=beta_arg)
                assert averaged_entanglement(coin, shift, n, Spin(outcome)).value == value


def _operators(count, seed):
    """(coin, shift) of `count` seeded general walks, then the two chains
    and the bounce, which collapse to exact zeros."""
    rng = np.random.default_rng(seed)
    rho, theta, eta = rng.uniform(0, 1, count), *rng.uniform(0, np.pi, (2, count))
    alpha, beta_arg = rng.uniform(0, 1, count), rng.uniform(0, 2 * np.pi, count)
    general = [
        (CoinOperator(*map(float, coin)), ShiftOperator(*map(float, shift)))
        for coin, shift in zip(zip(rho, theta, eta), zip(alpha, beta_arg))
    ]
    return general + [
        (hadamard_coin(), balanced_shift(0.0)),
        (kempe_coin(), balanced_shift(3 * np.pi / 2)),
        (kempe_coin(), balanced_shift(np.pi / 2)),
    ]


def _walks(count, seed):
    """Real coin stack (`_real_coins`) of the walks of `_operators`."""
    operators = _operators(count, seed)
    points = [[*vars(coin).values(), *vars(shift).values()] for coin, shift in operators]
    return _real_coins(*np.array(points).T)


#: walks in a batch too wide for two steps of the first width class in a block
_ONE_STEP_WALKS = core._BLOCK // (2 * 2 * core._WIDTH) + 1


def _padded_blocks(coins, n):
    """The finished blocks of `_padded_walk`, which `_metric_series`
    collapses, at the `_BLOCK` it reads when called; each is overwritten
    by the next."""
    return (block for _, block in _padded_walk(coins, n))


def _collapsed_shapes(monkeypatch):
    """A list that grows by the shape of each array `core.collapse_metrics`
    collapses from now on."""
    shapes = []

    def spy(amps, collapse=core.collapse_metrics):
        shapes.append(amps.shape)
        return collapse(amps)

    monkeypatch.setattr(core, "collapse_metrics", spy)
    return shapes


def _padded_steps(coins, n):
    """`collapse_metrics` of each step of `walk_batch`, its rows zero-padded
    to the step's `_WIDTH` class, stacked as `_metric_series` stacks them."""
    steps = []
    for a, amps in walk_batch(coins, n):
        width = -(-(a + 1) // core._WIDTH) * core._WIDTH
        padded = np.zeros(amps.shape[:-1] + (width,))
        padded[..., : a + 1] = amps
        steps.append(collapse_metrics(padded))
    return [np.stack(field) for field in zip(*steps)]


class TestBlockedSeries:
    """`_metric_series` collapses padded blocks of steps; it must agree with
    a collapse per step, and a walk's values must not depend on its batch."""

    @pytest.mark.parametrize("n", [2, 31, 32, 33, 200, 800])
    def test_matches_a_collapse_per_step(self, n):
        coins = _walks(4, seed=n)
        series = _metric_series(coins, n)
        steps = [collapse_metrics(amps) for _, amps in walk_batch(coins, n)]
        for blocked, field in zip(series, zip(*steps)):
            exact = np.stack(field)
            assert blocked.shape == exact.shape == (n, 2, coins.shape[0])
            if exact.dtype.kind == "i":  # N
                assert np.array_equal(blocked, exact)
            else:
                assert np.max(np.abs(blocked - exact)) <= 1e-13
                assert np.array_equal(blocked == 0.0, exact == 0.0)
        for field in (series.probability, series.entropy, series.normalized):
            assert np.all(field[:, 1, -3:-1] == 0.0)  # the chains: no down, no entanglement
        assert np.all(series.entropy[:, :, -1] == 0.0)  # the bounce: product states only
        assert np.all(series.term_count[:, :, -3:] <= 1)

    @pytest.mark.parametrize("budget", [core._BLOCK, 1])
    def test_batch_equals_each_walk_alone_to_the_bit(self, monkeypatch, budget):
        monkeypatch.setattr(core, "_BLOCK", budget)
        # 200 steps, the width-class edges 31-33, and a batch wide enough that
        # even the default budget steps it in one-step blocks
        for coins, n in [(_walks(47, seed=7), 200), *((_walks(5, seed=n), n) for n in (31, 32, 33)),
                         (_walks(_ONE_STEP_WALKS, seed=9), 40)]:
            batch = _metric_series(coins, n)
            for j in range(coins.shape[0]):
                alone = _metric_series(coins[j : j + 1], n)
                for field, own in zip(batch, alone):
                    assert np.array_equal(field[:, :, j : j + 1], own)

    def test_budget_changes_no_bit(self, monkeypatch):
        cases = [(_walks(2, seed=3), 300), *((_walks(3, seed=n), n) for n in (31, 32, 33)),
                 (_walks(_ONE_STEP_WALKS, seed=4), 40)]
        default = [_metric_series(coins, n) for coins, n in cases]
        assert all(len(block) == 1 for block in _padded_blocks(*cases[-1]))
        # the average, which drops dead walks at block ends: the last two cases'
        # thresholds drop walks, the last one's inside the blocks of larger budgets
        averaged_cases = [(coins, n, -np.inf, -np.inf) for coins, n in cases]
        averaged_cases += [(_walks(20, seed=n), n, 0.15, 0.75) for n in (33, 200)]
        shapes = _collapsed_shapes(monkeypatch)
        budgets, averages, ends = (core._BLOCK, 1 << 18, 1), {}, {}
        for budget in budgets:
            monkeypatch.setattr(core, "_BLOCK", budget)
            averages[budget] = [_averaged(*case) for case in averaged_cases]
            shapes.clear()
            _averaged(*averaged_cases[-1])
            ends[budget] = np.cumsum([shape[0] for shape in shapes])
        # budget 1, the last, makes every step a block: the steps after which walks died
        died = ends[1][:-1][np.diff([shape[2] for shape in shapes]) < 0]
        assert died.size and not any(np.isin(died, ends[budget]).all() for budget in budgets[:2])
        assert all(0 < walks.size < 23 for walks, *_ in averages[1][-2:])  # of 23 walks
        for budget in budgets[:2]:
            for got, per_step in zip(averages[budget], averages[1]):
                assert all(np.array_equal(a, b) for a, b in zip(got, per_step))
        for (coins, n), series in zip(cases, default):
            assert all(len(block) == 1 for block in _padded_blocks(coins, n))
            single = _metric_series(coins, n)
            # and each step is the collapse of walk_batch's row alone, zero-padded to its class
            steps = _padded_steps(coins, n)
            for field, one, own in zip(series, single, steps):
                assert np.array_equal(field, one)
                assert np.array_equal(field, own)

    def test_average_collapses_a_block_per_call(self, monkeypatch):
        coins, calls = _walks(1, seed=5)[:1], _collapsed_shapes(monkeypatch)
        _averaged(coins, 200)
        # one call per finished block of `_padded_walk`, not one per step (199)
        assert len(calls) == len(list(_padded_blocks(coins, 200))) == 7

    def test_blocks_are_padded_width_classes_within_the_budget(self):
        coins = _walks(1, seed=1)
        n, first = 800, 1
        for block in _padded_blocks(coins, n):
            size, _, b, width = block.shape
            last = first + size - 1
            assert width % core._WIDTH == 0
            assert width - core._WIDTH < first + 1 and last + 1 <= width
            assert size == 1 or size * 2 * b * width <= core._BLOCK
            assert np.all(block[-1, :, :, last + 1 :] == 0.0)
            first = last + 1
        assert first == n + 1


def _sequential_mean(normalized):
    """Mean of steps 2..n of an (n, ...) array of normalized E, summed one
    step at a time from step 2, as the definition reads."""
    total = np.zeros(normalized.shape[1:])
    for value in normalized[1:]:
        total += value
    return total / (len(normalized) - 1)


def _walked_coins(hits, grid_step):
    """The real coin whose walk gave each hit: the first point of the
    hit's key for a grid search (`sweep._key_walks`), the hit's own point
    for a catalog (grid_step None)."""
    params = np.array([hit[:5] for hit in hits]).T
    if grid_step is None:
        return _real_coins(*params)
    axes = [grid_axis(name, grid_step) for name in PARAM_RANGES]
    (rho, rest), key, _ = sweep._key_walks(axes)
    keys = key([np.searchsorted(axis, values) for axis, values in zip(axes, params)])
    first, j = np.divmod(keys, len(rest))
    return _real_coins(rho[first], *rest[j].T)


class TestOneCollapseRule:
    """Every metric path collapses step n's rows zero-padded to its width
    class, so the average, the averaged sweep rows and every search hit
    carry the per-step series' bits."""

    @pytest.mark.parametrize("n", [2, 31, 32, 33, 200])
    def test_average_is_the_sequential_mean_of_the_series(self, n):
        for coin, shift in _operators(10, seed=n):
            fixed = {**vars(coin), "alpha": shift.alpha}
            beta_arg = shift.beta_arg
            spec = SweepSpec(CoinFamily.GENERAL, "beta_arg", beta_arg, beta_arg, 1.0, n, fixed)
            _, rows = sweep_1d(spec)
            assert [row[0] for row in rows] == [beta_arg] * 2
            for _, outcome, row_mean in rows:
                outcome = Spin(outcome)
                series = walk_entanglement_series(coin, shift, n, outcome)
                mean = _sequential_mean(np.array([record.normalized for record in series]))
                assert averaged_entanglement(coin, shift, n, outcome).value == mean
                assert row_mean == mean

    @pytest.mark.parametrize("search, n, grid_step", [
        ("isolated", 33, 0.3),
        ("averaged", 33, 0.6),
        ("averaged", 200, 0.6),
        ("z-catalog", 33, None),
    ])
    def test_hits_carry_their_walks_series(self, search, n, grid_step):
        if search == "isolated":
            hits = list(grid_search(grid_step, n, SearchMode.ISOLATED_MAX))
        elif search == "averaged":
            hits = list(grid_search(grid_step, n, SearchMode.AVERAGED_HIGH, avg_threshold=0.75))
        else:
            hits = find_max_cases(CoinFamily.Z, n_max=n, p_threshold=0.15)
        assert len(hits) > 500
        coins, inverse = np.unique(_walked_coins(hits, grid_step), axis=0, return_inverse=True)
        series = _metric_series(coins, n)
        walk = inverse.ravel()
        row = np.array([hit.outcome.row for hit in hits])
        got = np.array([(hit.normalized, hit.probability) for hit in hits]).T
        n_terms = np.array([hit.term_count for hit in hits])
        if search == "averaged":  # the mean, the least P and the last N of steps 2..n
            expected = (
                _sequential_mean(series.normalized)[row, walk],
                series.probability[1:].min(axis=0)[row, walk],
                series.term_count[-1, row, walk],
            )
        else:
            step = np.array([hit.step for hit in hits]) - 1
            fields = (series.normalized, series.probability, series.term_count)
            expected = [field[step, row, walk] for field in fields]
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        assert np.array_equal(n_terms, expected[2])

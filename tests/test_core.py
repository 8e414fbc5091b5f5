import numpy as np
import pytest

from tandemwalk import (
    BALANCED_ALPHA,
    CoinOperator,
    ShiftOperator,
    Spin,
    balanced_shift,
    evolve,
    hadamard_coin,
    initial_state,
    iter_steps,
    kempe_coin,
    measure_spin,
    orthonormality_residual,
    phi1,
    step,
    verify_shift_unitarity,
    z_coin,
)
from tandemwalk import core
from tandemwalk.core import (
    CollapseMetrics,
    WalkState,
    _padded_walk,
    _real_coins,
    coin_matrices,
    collapse_metrics,
    invariant,
    shift_matrices,
    walk_batch,
)
from tandemwalk.entanglement import _metric_series

QUARTER = np.pi / 2


def reference_walk(coin_matrix, alpha, beta, n_steps):
    """Dict-based brute-force walk, independent of the array engine."""
    amps = {(Spin.UP, 0): 1.0 + 0.0j}
    for _ in range(n_steps):
        after_coin = {}
        for (spin, site), value in amps.items():
            col = 0 if spin is Spin.UP else 1
            for row, out in enumerate((Spin.UP, Spin.DOWN)):
                key = (out, site)
                after_coin[key] = after_coin.get(key, 0.0) + coin_matrix[row, col] * value
        shifted = {}
        for (spin, site), value in after_coin.items():
            if value == 0:
                continue
            up_key = (Spin.UP, site + 1)
            down_key = (Spin.DOWN, site - 1)
            up_term = (alpha if spin is Spin.UP else beta) * value
            down_term = (-np.conj(beta) if spin is Spin.UP else np.conj(alpha)) * value
            shifted[up_key] = shifted.get(up_key, 0.0) + up_term
            shifted[down_key] = shifted.get(down_key, 0.0) + down_term
        amps = shifted
    return amps


def random_operators(rng):
    coin = CoinOperator(
        rho=rng.uniform(0, 1), theta=rng.uniform(0, np.pi), eta=rng.uniform(0, np.pi)
    )
    shift = ShiftOperator(alpha=rng.uniform(0, 1), beta_arg=rng.uniform(0, 2 * np.pi))
    return coin, shift


class TestCoins:
    def test_hadamard_matrix_exact(self):
        c = np.sqrt(0.5)
        expected = np.array([[c, c], [c, -c]])
        got = hadamard_coin().matrix()
        assert np.array_equal(got, expected.astype(complex))

    def test_kempe_matrix_exact(self):
        c = np.sqrt(0.5)
        expected = np.array([[c, c * 1j], [c * 1j, c]])
        assert np.array_equal(kempe_coin().matrix(), expected)

    def test_z_matrix_exact(self):
        assert np.array_equal(
            z_coin().matrix(), np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        )

    def test_hadamard_involution(self):
        u = hadamard_coin().matrix()
        assert np.allclose(u @ u, np.eye(2), atol=1e-15)

    def test_z_involution_and_diagonal_action(self):
        u = z_coin().matrix()
        assert np.allclose(u @ u, np.eye(2), atol=0)
        assert u[0, 0] == 1.0 and u[1, 1] == -1.0

    def test_kempe_square_matches_direct_product(self):
        u = kempe_coin().matrix()
        direct = u @ u  # 2x2 multiplication oracle
        assert np.allclose(u @ u, direct, atol=0)
        assert np.allclose(direct, np.array([[0, 1j], [1j, 0]]), atol=1e-15)

    @pytest.mark.parametrize("coin", [hadamard_coin(), kempe_coin(), z_coin()])
    def test_named_coins_unitary(self, coin):
        assert coin.unitarity_residual() < 1e-12

    def test_general_matrix_against_direct_evaluation(self):
        rho, theta, eta = 0.3, 1.1, 0.4
        got = CoinOperator(rho=rho, theta=theta, eta=eta).matrix()
        expected = np.array(
            [
                [np.sqrt(rho), np.sqrt(1 - rho) * np.exp(1j * (theta - eta))],
                [
                    -np.sqrt(1 - rho) * np.exp(-1j * (theta + eta)),
                    np.sqrt(rho) * np.exp(-2j * eta),
                ],
            ]
        )
        assert np.allclose(got, expected, atol=1e-15)
        residual = np.max(np.abs(got @ got.conj().T - np.eye(2)))
        assert residual < 1e-12

    def test_identity_point(self):
        got = CoinOperator(rho=1.0, theta=0.7, eta=0.0).matrix()
        assert np.array_equal(got, np.eye(2, dtype=complex))

    def test_random_coins_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            coin, _ = random_operators(rng)
            assert coin.unitarity_residual() < 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": -0.1, "theta": 0.0, "eta": 0.0},
            {"rho": 1.1, "theta": 0.0, "eta": 0.0},
            {"rho": 0.5, "theta": -0.2, "eta": 0.0},
            {"rho": 0.5, "theta": 4.0, "eta": 0.0},
            {"rho": 0.5, "theta": 0.0, "eta": 3.2},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CoinOperator(**kwargs)


class TestShift:
    def test_beta_derivation(self):
        s = ShiftOperator(alpha=0.6, beta_arg=1.2)
        assert abs(abs(s.beta) - 0.8) < 1e-15
        assert abs(np.angle(s.beta) - 1.2) < 1e-15

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            ShiftOperator(alpha=1.5)

    def test_beta_is_the_matrix_entry_to_the_bit(self):
        rng = np.random.default_rng(41)
        pairs = list(zip(rng.uniform(0, 1, 200), rng.uniform(0, 2 * np.pi, 200)))
        pairs += [(a, k * QUARTER) for a in (0.0, 0.37, BALANCED_ALPHA, 1.0) for k in range(4)]
        for alpha, beta_arg in pairs:
            s = ShiftOperator(alpha=alpha, beta_arg=beta_arg)
            entry = complex(s.matrix()[0, 1])
            assert type(s.beta) is complex
            assert repr(s.beta) == repr(entry)  # the sign of a zero part too

    def test_balanced_shift_is_exactly_balanced(self):
        s = balanced_shift()
        assert s.alpha == BALANCED_ALPHA
        assert s.beta == BALANCED_ALPHA  # identical floats, real phase

    def test_balanced_alpha_gives_exactly_balanced_beta(self):
        assert ShiftOperator(alpha=BALANCED_ALPHA).beta == BALANCED_ALPHA
        turned = ShiftOperator(alpha=BALANCED_ALPHA, beta_arg=3 * QUARTER)
        assert turned.beta == -1j * BALANCED_ALPHA

    def test_shift_matrices_pin_only_the_balanced_entry(self):
        alphas = np.array([0.6, BALANCED_ALPHA, np.nextafter(BALANCED_ALPHA, 1.0)])
        moduli = np.abs(shift_matrices(alphas, 0.0)[:, 0, 1])
        derived = np.sqrt((1.0 - alphas) * (1.0 + alphas))
        assert moduli[1] == BALANCED_ALPHA != derived[1]
        assert np.array_equal(moduli[[0, 2]], derived[[0, 2]])

    def test_unitarity_trivial_point(self):
        ok, residual = verify_shift_unitarity(ShiftOperator(alpha=1.0, beta_arg=2.5))
        assert ok and residual < 1e-12

    def test_unitarity_generic_point(self):
        ok, residual = verify_shift_unitarity(ShiftOperator(alpha=0.6, beta_arg=1.2))
        assert ok and residual < 1e-12

    def test_corrupted_pair_detected(self):
        residual = orthonormality_residual(0.6, 0.8 + 1e-3)
        assert residual > 1e-12

    @pytest.mark.parametrize("beta_arg", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_arg_rejected(self, beta_arg):
        with pytest.raises(ValueError, match="beta_arg must be finite"):
            ShiftOperator(alpha=0.5, beta_arg=beta_arg)
        with pytest.raises(ValueError, match="beta_arg must be finite"):
            balanced_shift(beta_arg)

    def test_beta_arg_wraps(self):
        s = ShiftOperator(alpha=0.5, beta_arg=2 * np.pi)
        assert s.beta_arg == 0.0
        # the residue 2 pi - 1e-20 rounds to 2 pi, the same phase as 0
        assert ShiftOperator(alpha=0.5, beta_arg=-1e-20).beta_arg == 0.0


class TestEvolution:
    def test_initial_state(self):
        s = initial_state()
        assert s.step == 0
        assert abs(s.norm() - 1.0) < 1e-15
        assert s.amplitude(Spin.UP, 0) == 1.0
        assert measure_spin(s, Spin.UP).probability == 1.0

    def test_single_step_balanced_hadamard(self):
        after = step(initial_state(), hadamard_coin(), balanced_shift())
        assert after.amplitude(Spin.UP, 1) == 1.0000000000000002 or abs(
            after.amplitude(Spin.UP, 1) - 1.0
        ) < 1e-15
        assert after.amplitude(Spin.DOWN, -1) == 0.0

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            coin, shift = random_operators(rng)
            state = evolve(coin, shift, 40)
            assert abs(state.norm() - 1.0) < 1e-12

    def test_single_step_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            coin, shift = random_operators(rng)
            state = step(initial_state(), coin, shift)
            up, down = phi1(coin, shift)
            assert abs(state.amplitude(Spin.UP, 1) - up) < 1e-12
            assert abs(state.amplitude(Spin.DOWN, -1) - down) < 1e-12

    def test_kempe_chains(self):
        up_chain = evolve(kempe_coin(), balanced_shift(3 * QUARTER), 7)
        assert abs(abs(up_chain.amplitude(Spin.UP, 7)) - 1.0) < 1e-12
        assert measure_spin(up_chain, Spin.DOWN).probability == 0.0

    def test_engine_matches_reference_walk(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coin, shift = random_operators(rng)
            state = evolve(coin, shift, 6)
            expected = reference_walk(coin.matrix(), shift.alpha, shift.beta, 6)
            for (spin, site), value in expected.items():
                assert abs(state.amplitude(spin, site) - value) < 1e-12

    def test_support_and_parity(self):
        rng = np.random.default_rng(13)
        coin, shift = random_operators(rng)
        for state in iter_steps(coin, shift, 31):
            n = state.step
            sites = state.sites()
            for amps in (state.amps_up, state.amps_down):
                occupied = sites[np.abs(amps) > 0]
                if occupied.size:
                    assert np.max(np.abs(occupied)) <= n
                    assert np.all((occupied - n) % 2 == 0)

    def test_probability_completeness(self):
        rng = np.random.default_rng(17)
        coin, shift = random_operators(rng)
        for state in iter_steps(coin, shift, 60):
            total = (
                measure_spin(state, Spin.UP).probability
                + measure_spin(state, Spin.DOWN).probability
            )
            assert abs(total - 1.0) < 1e-12

    def test_first_step_never_entangles(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            coin, shift = random_operators(rng)
            state = evolve(coin, shift, 1)
            for outcome in Spin:
                assert measure_spin(state, outcome).term_count <= 1


class TestMeasurement:
    def test_degenerate_outcome(self):
        state = evolve(hadamard_coin(), balanced_shift(), 5)
        result = measure_spin(state, Spin.DOWN)
        assert result.probability == 0.0
        assert result.term_count == 0
        assert result.amps.size == 0

    def test_initial_up_measurement(self):
        result = measure_spin(initial_state(), Spin.UP)
        assert result.probability == 1.0
        assert result.term_count == 1
        assert result.amps[0] == 1.0

    def test_z_coin_two_step_collapse_against_reference(self):
        shift = balanced_shift(0.7)
        state = evolve(z_coin(), shift, 2)
        result = measure_spin(state, Spin.UP)
        expected = reference_walk(z_coin().matrix(), shift.alpha, shift.beta, 2)
        prob = sum(
            abs(v) ** 2 for (spin, _), v in expected.items() if spin is Spin.UP
        )
        assert abs(result.probability - prob) < 1e-12
        # collapsed amplitudes proportional to (alpha^2, |beta|^2) on sites (2, 0)
        a2 = result.amps[np.where(result.sites() == 2)[0][0]]
        b2 = result.amps[np.where(result.sites() == 0)[0][0]]
        ratio = abs(a2) / abs(b2)
        assert abs(ratio - shift.alpha**2 / abs(shift.beta) ** 2) < 1e-12

    def test_collapse_normalized(self):
        rng = np.random.default_rng(29)
        coin, shift = random_operators(rng)
        for state in iter_steps(coin, shift, 20):
            for outcome in Spin:
                result = measure_spin(state, outcome)
                if result.probability > 0:
                    total = np.sum(np.abs(result.amps) ** 2)
                    assert abs(total - 1.0) < 1e-12

    def test_probability_and_term_count_are_those_of_collapse_metrics(self):
        """One collapse rule: P and N of a complex walk's outcome are those of
        `collapse_metrics` on its row, to the bit, chains and bounce included."""
        rng = np.random.default_rng(67)
        walks = [random_operators(rng) for _ in range(6)] + [
            (hadamard_coin(), balanced_shift(0.0)),
            (kempe_coin(), balanced_shift(3 * QUARTER)),
            (kempe_coin(), balanced_shift(QUARTER)),
        ]
        for coin, shift in walks:
            for state in iter_steps(coin, shift, 200):
                for outcome, amps in ((Spin.UP, state.amps_up), (Spin.DOWN, state.amps_down)):
                    result, metrics = measure_spin(state, outcome), collapse_metrics(amps)
                    assert result.probability == metrics.probability
                    assert result.term_count == metrics.term_count


def reference_collapse(amps):
    """`collapse_metrics` as it was written before it was made leaner: a
    compare and a select for P = 0 and for zero weights, and a separate
    cap for N < 2.  The fast one must give these bits."""
    threshold = 1e-10 * 1e-10
    weights = np.square(amps.real, dtype=np.float64)
    if np.iscomplexobj(amps):
        weights += amps.imag * amps.imag
    probability = weights.sum(axis=-1)
    weights /= np.where(probability > 0.0, probability, 1.0)[..., None]
    n_terms = np.count_nonzero(weights > threshold, axis=-1)
    terms = np.where(weights > 0.0, weights, 1.0)
    np.log2(terms, out=terms)
    terms *= weights
    e_bits = -terms.sum(axis=-1) + 0.0
    ratio = np.minimum(e_bits / np.log2(np.maximum(n_terms, 2)), 1.0)
    return probability, n_terms, e_bits, np.where(n_terms >= 2, ratio, 0.0)


class TestCollapseBits:
    """The lean `collapse_metrics` against `reference_collapse`, to the bit
    and the sign of zero, on the rows where its shortcuts could differ."""

    ROWS = {
        "exact zeros": np.array([[0.0, 0.6, 0.0, 0.8, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]]),
        "all-zero rows": np.zeros((2, 3, 6)),
        # (1e-160)^2 = 1e-320, a subnormal weight; the second row's P is subnormal itself
        "subnormal weight": np.array([[1.0, 1e-160, 0.0, 3e-155], [1e-161, 2e-161, 0.0, 0.0]]),
        "complex": np.array([[0.6 + 0j, 0.0, -0.8j, 0.0], [0.0, 0j, 0.0, 0.0], [1e-160j, 0.5, 0.5j, 0.0]]),
        "1-d": np.array([0.0, 0.28, 0.0, 0.96]),
        "1-d complex": np.array([0.6j, 0.0, 0.8 + 0j]),
        "0-d": np.array(0.6),
        "0-d zero": np.array(0j),
        "one term below the threshold": np.array([1.0, 1e-11, 0.0]),
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_bits_of_the_reference(self, name):
        amps = self.ROWS[name]
        for got, want in zip(collapse_metrics(amps), reference_collapse(amps)):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_walk_rows_match_the_reference(self):
        rng = np.random.default_rng(83)
        coin, shift = random_operators(rng)
        for _, amps in walk_batch(coin.matrix()[None], shift.matrix()[None], 60):
            for got, want in zip(collapse_metrics(amps), reference_collapse(amps)):
                assert np.array_equal(got, want)

    def test_eight_slot_padding_gives_the_bits_of_thirty_two(self):
        """numpy sums a row of at most 128 slots in 8 interleaved partial
        sums, so `core._collapsed_blocks` may cut a block's zero padding to
        a multiple of 8 slots there."""
        rng = np.random.default_rng(128)
        for length in range(1, 129):
            amps = rng.standard_normal((40, length))
            amps[rng.random(amps.shape) < 0.3] = 0.0  # exact zeros
            amps[rng.random(amps.shape) < 0.1] *= 1e-160  # subnormal weights
            amps[-1] = 0.0  # a row of P = 0
            narrow, wide = (np.zeros((40, -(-length // w) * w)) for w in (8, 32))
            narrow[:, :length] = wide[:, :length] = amps
            for got, want in zip(collapse_metrics(narrow), collapse_metrics(wide)):
                assert got.dtype == want.dtype
                # every bit, zero signs included
                assert got.tobytes() == want.tobytes(), f"{length} slots"


class TestLongWalks:
    def test_norm_drift_over_1000_steps(self):
        cases = [
            (hadamard_coin(), balanced_shift()),
            (kempe_coin(), ShiftOperator(alpha=0.37, beta_arg=2.1)),
            (CoinOperator(rho=0.83, theta=2.0, eta=0.9), ShiftOperator(alpha=0.52, beta_arg=4.4)),
        ]
        for coin, shift in cases:
            state = evolve(coin, shift, 1000)
            assert abs(state.norm() - 1.0) < 1e-10


class TestConjugationSymmetry:
    def test_mirrored_walks_have_the_same_series(self):
        """Complex conjugation maps U(rho, theta, eta) to U(rho, pi - theta, pi - eta)
        and beta's phase b to 2 pi - b, so the mirrored walk is the conjugate
        walk and every P, N, E and normalized E matches at every step."""
        rng = np.random.default_rng(31)
        rho, alpha = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
        theta, eta = rng.uniform(0, np.pi, 20), rng.uniform(0, np.pi, 20)
        beta_arg = rng.uniform(0, 2 * np.pi, 20)
        mirror_arg = np.mod(2 * np.pi - beta_arg, 2 * np.pi)
        u = coin_matrices(np.tile(rho, 2), np.r_[theta, np.pi - theta], np.r_[eta, np.pi - eta])
        v = shift_matrices(np.tile(alpha, 2), np.r_[beta_arg, mirror_arg])
        assert np.allclose(u[20:], u[:20].conj(), atol=1e-15)
        assert np.allclose(v[20:], v[:20].conj(), atol=1e-15)
        for _, amps in walk_batch(u, v, 200):
            metrics = collapse_metrics(amps)
            assert np.array_equal(metrics.term_count[:, :20], metrics.term_count[:, 20:])
            for values in (metrics.probability, metrics.entropy, metrics.normalized):
                assert np.max(np.abs(values[:, :20] - values[:, 20:])) < 1e-12


class TestInvariantEdges:
    def test_r_zero_and_one_never_entangle(self):
        """r = |(V U)_00| is 1 at alpha = sqrt(rho), beta phase theta + eta + pi
        (a product-state chain) and 0 at alpha = sqrt(1 - rho), beta phase
        theta + eta (a two-site bounce), so at every step one outcome is
        certain and leaves a single term."""
        rng = np.random.default_rng(59)
        rho = rng.uniform(0, 1, 40)
        theta, eta = rng.uniform(0, np.pi, 40), rng.uniform(0, np.pi, 40)
        u = coin_matrices(np.tile(rho, 2), np.tile(theta, 2), np.tile(eta, 2))
        phase = np.r_[theta + eta + np.pi, theta + eta]
        v = shift_matrices(np.r_[np.sqrt(rho), np.sqrt(1 - rho)], np.mod(phase, 2 * np.pi))
        walks = np.arange(80)
        for _, amps in walk_batch(u, v, 200):
            metrics = collapse_metrics(amps)
            likelier = np.argmax(metrics.probability, axis=0)
            assert np.max(np.abs(metrics.probability[likelier, walks] - 1.0)) < 1e-12
            assert np.all(metrics.term_count[likelier, walks] == 1)
            assert np.all(metrics.normalized[likelier, walks] == 0.0)


def collapsed_series(u, v, n_steps):
    """`collapse_metrics` of each step of the complex walks of u and v,
    each field stacked into an (n_steps, 2, B) array like `_metric_series`."""
    steps = [collapse_metrics(amps) for _, amps in walk_batch(u, v, n_steps)]
    return CollapseMetrics(*map(np.stack, zip(*steps)))


def assert_same_series(got, expected, atol=1e-12):
    """N equal on every row and step, P, E and normalized E within atol."""
    assert np.array_equal(got.term_count, expected.term_count)
    for field in ("probability", "entropy", "normalized"):
        assert np.max(np.abs(getattr(got, field) - getattr(expected, field))) <= atol


class TestRealWalk:
    """Every metric is walked on the real coin [[a, b], [-b, a]] of `invariant`."""

    SPECIAL = [  # (coin, shift, a, b): the two chains and the bounce
        (hadamard_coin(), balanced_shift(0.0), 1.0, 0.0),
        (kempe_coin(), balanced_shift(3 * QUARTER), 1.0, 0.0),
        (kempe_coin(), balanced_shift(QUARTER), 0.0, 1.0),
    ]

    def special_params(self):
        """(5, 3) parameter columns of the chains and the bounce."""
        return np.array([[*vars(c).values(), *vars(s).values()] for c, s, *_ in self.SPECIAL]).T

    @staticmethod
    def stacks(count, seed):
        """Seeded parameter columns and their complex U and V stacks."""
        rng = np.random.default_rng(seed)
        params = [rng.uniform(0, 1, count), *rng.uniform(0, np.pi, (2, count)),
                  rng.uniform(0, 1, count), rng.uniform(0, 2 * np.pi, count)]
        return params, coin_matrices(*params[:3]), shift_matrices(*params[3:])

    def test_invariant_is_exact_at_the_chains_and_the_bounce(self):
        for coin, shift, a, b in self.SPECIAL:
            assert invariant(**vars(coin), **vars(shift)) == (a, b)
        a, b = invariant(*np.repeat(self.special_params(), 4, axis=1))
        assert np.array_equal(a, np.repeat([1.0, 1.0, 0.0], 4))
        assert np.array_equal(b, np.repeat([0.0, 0.0, 1.0], 4))

    def test_invariant_is_a_unit_pair_and_matches_the_closed_form(self):
        (rho, theta, eta, alpha, beta_arg), _, _ = self.stacks(10_000, seed=41)
        a, b = invariant(rho, theta, eta, alpha, beta_arg)
        assert np.all(np.abs(a * a + b * b - 1.0) <= 2 * np.finfo(float).eps)
        r2 = (alpha**2 * rho + (1 - alpha**2) * (1 - rho)
              - 2 * alpha * np.sqrt((1 - alpha**2) * rho * (1 - rho))
              * np.cos(beta_arg - theta - eta))
        assert np.max(np.abs(a * a - r2)) < 1e-12

    def test_equal_r_gives_equal_series(self):
        """theta and eta enter r only through theta + eta: split one sum four
        ways, walk the complex engine and collapse each step."""
        rng = np.random.default_rng(43)
        rho, alpha, beta_arg = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5), rng.uniform(0, 6, 5)
        total = rng.uniform(0, np.pi, 5)
        split = np.array([0.0, 0.3, 0.6, 1.0])[:, None] * total  # (4, 5)
        u = coin_matrices(np.tile(rho, 4), split.ravel(), (total - split).ravel())
        v = shift_matrices(np.tile(alpha, 4), np.tile(beta_arg, 4))
        series = collapsed_series(u, v, 200)
        first = series._make(field[:, :, :5] for field in series)
        for j in range(5, 20, 5):
            assert_same_series(series._make(field[:, :, j : j + 5] for field in series), first)

    @pytest.mark.parametrize("n", [200, 800])
    def test_real_and_complex_series_agree(self, n):
        params, u, v = self.stacks(6, seed=n)
        params = np.c_[np.array(params), self.special_params()]
        u = np.concatenate([u, coin_matrices(*params[:3, 6:])])
        v = np.concatenate([v, shift_matrices(*params[3:, 6:])])
        real = _real_coins(*params)
        assert real.dtype == np.float64
        assert_same_series(_metric_series(real, n), collapsed_series(u, v, n))
        for (_, full), (_, amps) in zip(walk_batch(u, v, n), walk_batch(real, None, n)):
            assert amps.dtype == np.float64
            assert_same_series(collapse_metrics(amps), collapse_metrics(full))

    def test_chains_and_bounce_stay_exact_to_step_800(self):
        series = _metric_series(_real_coins(*self.special_params()), 800)
        assert np.all(series.probability[:, Spin.DOWN.row, :2] == 0.0)
        assert np.all(series.probability[:, Spin.UP.row, :2] == 1.0)
        assert np.all(series.entropy == 0.0) and np.all(series.normalized == 0.0)
        assert np.all(series.term_count <= 1)

    def test_complex_walk_is_the_real_walk_times_derived_phases(self):
        """With W = V U and (a, b) = `invariant`, set p1 = W00/a,
        p2 = -W10/b, q2 = W01 a/(W00 b), e2 = q2 p2 and e^{i delta} = p1/e2.
        Then c_up(n, k) = e2^n e^{i delta k} x_up(n, k) and c_down(n, k) =
        e2^(n-1) e^{i delta k} p2 x_down(n, k), x the real walk: the
        amplitudes agree, not only their moduli, and no phase is fitted."""
        n = 800
        params, u, v = self.stacks(20, seed=12)
        a, b = invariant(*params)
        assert np.all(a > 0) and np.all(b > 0)
        w = core._mixed(v, u)
        p1, p2 = w[:, 0, 0] / a, -w[:, 1, 0] / b
        e2 = w[:, 0, 1] * a / (w[:, 0, 0] * b) * p2
        along = (p1 / e2)[:, None] ** np.arange(n + 1)  # e^{i delta k}, (B, n + 1)
        worst, real_walk = 0.0, walk_batch(_real_coins(*params), None, n)
        for (m, full), (_, real) in zip(walk_batch(u, v, n), real_walk):
            up = e2[:, None] ** m * along[:, : m + 1] * real[Spin.UP.row]
            down = (e2 ** (m - 1) * p2)[:, None] * along[:, : m + 1] * real[Spin.DOWN.row]
            worst = max(worst, np.max(np.abs(full - np.stack([up, down]))))
        assert m == n and worst <= 1e-12


class TestOneMixRule:
    """`core._mixed` applies every complex 2x2 mix: the complex walk's
    coin and shift, `step`, and W in `invariant`."""

    def test_invariants_w_is_the_walks_w(self):
        """The step-1 amplitudes of the complex walk are column 0 of W = V U
        as `invariant` forms it, to the bit."""
        params, _, _ = TestRealWalk.stacks(40, seed=7)
        params = np.c_[np.array(params), TestRealWalk().special_params()]
        u, v = coin_matrices(*params[:3]), shift_matrices(*params[3:])
        w = core._mixed(v, u)
        (_, amps), = walk_batch(u, v, 1)
        assert amps[Spin.UP.row, :, 1].tobytes() == w[:, 0, 0].tobytes()
        assert amps[Spin.DOWN.row, :, 0].tobytes() == w[:, 1, 0].tobytes()
        moduli = np.abs(w[:, 0]).T  # |W00|, |W01|
        for got, want in zip(invariant(*params), moduli / np.hypot(*moduli)):
            assert got.tobytes() == want.tobytes()

    def test_chains_keep_unit_modulus_and_no_down_amplitude(self):
        """Each product rounded on its own keeps a chain's one amplitude at
        modulus 1 to an ulp over 500 complex steps, and its down branch at
        an exact 0; one premultiplied mix W drifts the modulus by a
        rounding per step."""
        chains = TestRealWalk().special_params()[:, :2]
        u, v = coin_matrices(*chains[:3]), shift_matrices(*chains[3:])
        for n, amps in walk_batch(u, v, 500):
            assert np.all(np.abs(np.abs(amps[Spin.UP.row, :, n]) - 1.0) <= 1e-15), n
            assert np.all(collapse_metrics(amps).probability[Spin.DOWN.row] == 0.0), n
        assert n == 500


class TestWalkBatchMasks:
    """A consumer of the stepping generator behind `walk_batch` can drop
    walks at the end of any block by sending a mask; the walks it keeps go
    on as if nothing had been dropped."""

    def test_finished_blocks_hold_the_kept_walks(self):
        for walks in (12, 600):  # 600 walks step one step per block
            params, _, _ = TestRealWalk.stacks(walks, seed=3)
            coins, n = _real_coins(*params), 70
            full = [amps.copy() for _, amps in walk_batch(coins, None, n)]
            rng = np.random.default_rng(3)
            kept, keep, blocks, a = np.arange(walks), None, 0, 0
            walk = _padded_walk(coins, None, n)
            while a < n:
                a, block = walk.send(keep)
                blocks += 1
                assert block.shape[2] == kept.size
                for step, got in enumerate(block, start=a + 1 - len(block)):
                    assert got[:, :, : step + 1].tobytes() == full[step - 1][:, kept].tobytes()
                    assert not got[:, :, step + 1 :].any()
                keep = None
                if blocks in (1, 2, 4) or a in (31, 33):  # inside, at and past a width class
                    keep = rng.random(kept.size) < 0.8
                    kept = kept[keep]
            assert 0 < kept.size < walks and blocks > 3
            with pytest.raises(StopIteration):
                next(walk)


class TestRealStep:
    """The real walk steps each row with one `np.matmul` over the whole
    padded width, so the slots past every step must hold zeros it wrote
    itself, and a walk's bits must not depend on its batch or block."""

    N_STEPS = 70  # three width classes

    @staticmethod
    def coins(count):
        """A general walk, the chains and the bounce, then general walks:
        count >= 4 in all."""
        params, _, _ = TestRealWalk.stacks(count, seed=11)
        params = np.array(params)
        params[:, 1:4] = TestRealWalk().special_params()
        return _real_coins(*params)

    def series(self, coins):
        """P, N, E and normalized E of every step and walk of the blocks
        of `_padded_walk`.  After the first block to reach step 40, a mask
        keeps the walks whose index is not 1 mod 3; the others read NaN
        from step 41 on.  Checks each block's padding on the way."""
        n, b = self.N_STEPS, coins.shape[0]
        fields = [np.full((n, 2, b), np.nan) for _ in CollapseMetrics._fields]
        kept, keep, end, walk = np.arange(b), None, 0, _padded_walk(coins, None, n)
        masked = False
        while end < n:
            end, block = walk.send(keep)
            keep = None
            for a, row in enumerate(block, start=end + 1 - len(block)):
                assert not row[Spin.UP.row, :, 0].any()
                assert not row[:, :, a + 1 :].any()  # the last down slot too
            for field, values in zip(fields, collapse_metrics(block)):
                field[end - len(block) : end][..., kept] = values
            if end >= 40 and not masked:
                keep, masked = kept % 3 != 1, True
                kept = kept[keep]
        for field in fields:
            field[40:, :, 1::3] = np.nan
        return fields

    def test_padding_stays_zero_and_bits_stay_put(self, monkeypatch):
        everything = self.coins(4096)
        runs = {}
        for budget in (1, core._BLOCK, 1 << 18):
            monkeypatch.setattr(core, "_BLOCK", budget)
            for b in (1, 25, 4096):
                runs[budget, b] = self.series(everything[:b])
        reference = runs[1, 4096]
        assert np.isnan(reference[0][-1, :, 1]).all() and not np.isnan(reference[0][-1, :, 3]).any()
        for (budget, b), fields in runs.items():
            for got, want in zip(fields, reference):
                assert got.tobytes() == want[..., :b].tobytes(), (budget, b)

    def test_one_matmul_per_step(self, monkeypatch):
        coins = self.coins(4)  # `invariant` mixes through `_mixed`, the walk must not
        calls, buffers, matmul, written = [], [], np.matmul, core._written

        def spy(coins, amps, out):
            calls.append(out.shape)
            return matmul(coins, amps, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        monkeypatch.setattr(core, "_written", lambda amps: buffers.append(amps) or written(amps))
        monkeypatch.setattr(core, "_mixed", lambda *args, **kwargs: pytest.fail("_mixed"))
        _metric_series(coins, 200)
        # every step one call over the whole padded width, a view made once per buffer
        widths = [-(-(a + 1) // core._WIDTH) * core._WIDTH for a in range(1, 201)]
        assert calls == [(4, 2, w - 1) for w in widths]
        assert len(buffers) == len(set(widths)) == 7


class TestInitialState:
    def test_a_product_start_state_that_no_r_reproduces(self):
        """(|up> + i|down>)/sqrt 2 under the real coin at r = 1/sqrt 2 keeps
        P_up = 1/2; from |up>, every r misses that series by more than 0.23."""
        half = np.sqrt(0.5)
        state = WalkState(0, np.array([half + 0j]), np.array([1j * half]))
        coin, shift = CoinOperator(0.5, 0.0, 0.0), ShiftOperator(1.0)
        assert invariant(**vars(coin), **vars(shift))[0] == half
        for _ in range(40):
            state = step(state, coin, shift)
            assert abs(measure_spin(state, Spin.UP).probability - 0.5) < 1e-12
        r = np.linspace(0.0, 1.0, 2001)
        real = np.stack([r, np.sqrt(1 - r * r), -np.sqrt(1 - r * r), r], axis=-1)
        worst = np.zeros(r.size)
        for _, amps in walk_batch(real.reshape(-1, 2, 2), None, 40):
            p_up = collapse_metrics(amps).probability[Spin.UP.row]
            worst = np.maximum(worst, np.abs(p_up - 0.5))
        assert worst.min() > 0.23

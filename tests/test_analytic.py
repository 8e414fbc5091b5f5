import numpy as np

from tandemwalk import (
    CoinOperator,
    ShiftOperator,
    Spin,
    balanced_shift,
    evolve,
    hadamard_coin,
    kempe_coin,
    max_condition_up,
    measure_spin,
    normalized_entanglement,
    phi1,
    psi_down_2,
    psi_up_2,
    z_coin,
)


def random_pair(rng):
    coin = CoinOperator(
        rho=rng.uniform(0, 1), theta=rng.uniform(0, np.pi), eta=rng.uniform(0, np.pi)
    )
    shift = ShiftOperator(alpha=rng.uniform(0, 1), beta_arg=rng.uniform(0, 2 * np.pi))
    return coin, shift


def align_phase(got, expected):
    """Rotate `got` so its largest-modulus entry matches `expected`'s phase."""
    pivot = int(np.argmax(np.abs(expected)))
    rotation = expected[pivot] / got[pivot]
    return got * (rotation / abs(rotation))


class TestPhi1:
    def test_balanced_hadamard_first_step(self):
        up, down = phi1(hadamard_coin(), balanced_shift())
        assert abs(up - 1.0) < 1e-15
        assert down == 0.0

    def test_identity_walk(self):
        coin = CoinOperator(rho=1.0, theta=0.0, eta=0.0)
        up, down = phi1(coin, ShiftOperator(alpha=1.0))
        assert up == 1.0 and down == 0.0

    def test_matches_engine(self):
        coin = CoinOperator(rho=0.3, theta=1.1, eta=0.4)
        shift = ShiftOperator(alpha=0.6, beta_arg=2.0)
        state = evolve(coin, shift, 1)
        up, down = phi1(coin, shift)
        assert abs(state.amplitude(Spin.UP, 1) - up) < 1e-12
        assert abs(state.amplitude(Spin.DOWN, -1) - down) < 1e-12


class TestStep2States:
    def test_kempe_real_beta_up_moduli_equal(self):
        for alpha in (0.2, 0.55, 0.9):
            state = psi_up_2(kempe_coin(), ShiftOperator(alpha=alpha))
            assert abs(abs(state.coeff_plus) - abs(state.coeff_minus)) < 1e-12

    def test_z_coin_up_state_form(self):
        shift = ShiftOperator(alpha=0.6, beta_arg=0.9)
        state = psi_up_2(z_coin(), shift)
        assert abs(state.coeff_plus - shift.alpha**2) < 1e-12
        assert abs(abs(state.coeff_minus) - abs(shift.beta) ** 2) < 1e-12

    def test_down_coefficients_always_share_a_modulus(self):
        # a down measurement at step 2 is maximally entangled whenever it
        # can occur, whatever the coin and shift parameters
        rng = np.random.default_rng(31)
        for _ in range(300):
            coin, shift = random_pair(rng)
            state = psi_down_2(coin, shift)
            assert abs(abs(state.coeff_plus) - abs(state.coeff_minus)) < 1e-9

    def test_hadamard_real_beta_down_state(self):
        shift = ShiftOperator(alpha=0.6)  # beta = 0.8
        state = psi_down_2(hadamard_coin(), shift)
        scale = (0.8**2 - 0.6**2) / 2.0
        assert abs(abs(state.coeff_plus) - scale) < 1e-12
        assert abs(abs(state.coeff_minus) - scale) < 1e-12
        assert abs(state.coeff_plus + state.coeff_minus) < 1e-12  # opposite signs

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            coin, shift = random_pair(rng)
            total = psi_up_2(coin, shift).probability + psi_down_2(coin, shift).probability
            assert abs(total - 1.0) < 1e-12

    def test_matches_engine_collapse(self):
        coin = CoinOperator(rho=0.7, theta=0.5, eta=1.3)
        shift = ShiftOperator(alpha=0.8, beta_arg=0.9)
        state = evolve(coin, shift, 2)
        for closed, outcome in (
            (psi_up_2(coin, shift), Spin.UP),
            (psi_down_2(coin, shift), Spin.DOWN),
        ):
            result = measure_spin(state, outcome)
            assert abs(result.probability - closed.probability) < 1e-12
            got = np.array([result.amplitude(s) for s in closed.sites])
            aligned = align_phase(got, closed.normalized_amps())
            assert np.max(np.abs(aligned - closed.normalized_amps())) < 1e-12


class TestMaxConditionUp:
    def test_hadamard_imaginary_beta(self):
        assert max_condition_up(hadamard_coin(), ShiftOperator(alpha=0.6, beta_arg=np.pi / 2))
        assert max_condition_up(hadamard_coin(), ShiftOperator(alpha=0.3, beta_arg=3 * np.pi / 2))

    def test_z_coin_needs_balanced_moduli(self):
        assert not max_condition_up(z_coin(), ShiftOperator(alpha=0.8, beta_arg=1.0))
        assert max_condition_up(z_coin(), balanced_shift(1.0))

    def test_equivalent_to_maximal_up_entanglement(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(400):
            coin, shift = random_pair(rng)
            result = measure_spin(evolve(coin, shift, 2), Spin.UP)
            if result.probability <= 1e-12:
                continue
            checked += 1
            maximal = (
                normalized_entanglement(result.amps) > 1 - 1e-9
            )
            assert max_condition_up(coin, shift) == maximal
        assert checked > 300


class TestOracleEquivalence:
    def test_thousand_random_points(self):
        rng = np.random.default_rng(43)
        worst_prob = 0.0
        worst_amp = 0.0
        for _ in range(1000):
            coin, shift = random_pair(rng)
            state = evolve(coin, shift, 2)
            for closed, outcome in (
                (psi_up_2(coin, shift), Spin.UP),
                (psi_down_2(coin, shift), Spin.DOWN),
            ):
                result = measure_spin(state, outcome)
                worst_prob = max(worst_prob, abs(result.probability - closed.probability))
                if closed.probability > 1e-20:
                    got = np.array(
                        [result.amplitude(s) for s in closed.sites]
                    )
                    aligned = align_phase(got, closed.normalized_amps())
                    worst_amp = max(
                        worst_amp, float(np.max(np.abs(aligned - closed.normalized_amps())))
                    )
        assert worst_prob < 1e-12
        assert worst_amp < 1e-12

    def test_single_surviving_term_at_deterministic_coins(self):
        rng = np.random.default_rng(47)
        for rho in (0.0, 1.0):
            for _ in range(50):
                coin = CoinOperator(
                    rho=rho, theta=rng.uniform(0, np.pi), eta=rng.uniform(0, np.pi)
                )
                shift = ShiftOperator(
                    alpha=rng.uniform(0.05, 0.95), beta_arg=rng.uniform(0, 2 * np.pi)
                )
                result = measure_spin(evolve(coin, shift, 2), Spin.DOWN)
                assert result.probability > 0
                assert normalized_entanglement(result.amps) > 1 - 1e-9

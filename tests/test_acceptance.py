"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Two strict expected-failure tests document claims about the
degenerate balanced points that the model's own closed forms rule out;
see their docstrings.
"""

import numpy as np
import pytest

from tandemwalk import (
    BALANCED_ALPHA,
    CoinOperator,
    SearchMode,
    ShiftOperator,
    Spin,
    averaged_entanglement,
    balanced_shift,
    entropy,
    evolve,
    grid_axis,
    grid_search,
    hadamard_coin,
    iter_steps,
    kempe_coin,
    max_condition_up,
    measure_spin,
    normalized_entanglement,
    orthonormality_residual,
    psi_down_2,
    psi_up_2,
    verify_shift_unitarity,
    walk_entanglement_series,
    z_coin,
)
from tandemwalk.core import coin_matrices, collapse_metrics, shift_matrices
from test_core import stepped_batch

QUARTER = np.pi / 2
NEAR_BALANCED = 0.7071067812  # close to, but not exactly, the balanced point


def report(tag: str, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def random_pair(rng):
    coin = CoinOperator(
        rho=rng.uniform(0, 1), theta=rng.uniform(0, np.pi), eta=rng.uniform(0, np.pi)
    )
    shift = ShiftOperator(alpha=rng.uniform(0, 1), beta_arg=rng.uniform(0, 2 * np.pi))
    return coin, shift


def test_criterion_01_special_point_chains():
    chains = [
        ("hadamard balanced", hadamard_coin(), balanced_shift(0.0), Spin.UP, +1),
        ("kempe 3pi/2", kempe_coin(), balanced_shift(3 * QUARTER), Spin.UP, +1),
    ]
    ok = True
    for label, coin, shift, spin, direction in chains:
        for state in iter_steps(coin, shift, 1000):
            site = direction * state.step
            fidelity = abs(state.amplitude(spin, site)) ** 2 / state.norm() ** 2
            if fidelity <= 1 - 1e-10:
                ok = False
                break
    assert report(
        "c01",
        ok,
        "product-state chains exact for 1000 steps (hadamard balanced, kempe 3pi/2); "
        "the kempe pi/2 walk bounces instead of forming a down chain, see the "
        "expected-failure variant",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the balanced kempe walk with beta phase pi/2 returns to the origin "
    "every second step (|up,0> -> |down,-1> -> -|up,0>); a |down> chain moving "
    "left cannot arise from the |up> start, as the step-2 closed forms confirm",
)
def test_criterion_01_kempe_down_chain_literal():
    """Literal reading: kempe at beta phase pi/2 walks |down> (x) |-n,-n>."""
    coin = kempe_coin()
    shift = balanced_shift(QUARTER)
    for state in iter_steps(coin, shift, 10):
        n = state.step
        fidelity = abs(state.amplitude(Spin.DOWN, -n)) ** 2 / state.norm() ** 2
        assert fidelity > 1 - 1e-10, f"no down chain at step {n}"


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(101)
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
                expected = closed.normalized_amps()
                got = np.array([result.amplitude(s) for s in closed.sites])
                pivot = int(np.argmax(np.abs(expected)))
                rotation = expected[pivot] / got[pivot]
                got = got * (rotation / abs(rotation))
                worst_amp = max(worst_amp, float(np.max(np.abs(got - expected))))
    ok = worst_prob < 1e-12 and worst_amp < 1e-12
    assert report(
        "c02",
        ok,
        f"1000 random points: collapse amplitudes and probabilities match the "
        f"closed forms (worst {max(worst_prob, worst_amp):.2e})",
    )


def _down_slice_maximal(params):
    u, v = coin_matrices(*params[:3]), shift_matrices(*params[3:])
    for _a, amps in stepped_batch(u, v, 2):
        metrics = collapse_metrics(amps)
    prob = metrics.probability[Spin.DOWN.row]
    cal = metrics.normalized[Spin.DOWN.row]
    live = prob > 1e-18
    worst = float(cal[live].min()) if live.any() else 1.0
    return worst, params[3][~live]


def test_criterion_03_maximality_conditions():
    theta = grid_axis("theta", 0.1)
    eta = grid_axis("eta", 0.1)
    alpha = grid_axis("alpha", 0.1)
    beta_arg = grid_axis("beta_arg", 0.1)
    rho = grid_axis("rho", 0.1)

    ok = True
    # (a)-(c): fixed-rho slices, everything else swept at 0.1
    for rho_value in (0.0, 1.0, 0.5):
        t, e, a, b = np.meshgrid(theta, eta, alpha, beta_arg, indexing="ij")
        params = [np.full(t.size, rho_value), t.ravel(), e.ravel(), a.ravel(), b.ravel()]
        worst, dead_alphas = _down_slice_maximal(params)
        ok &= worst > 1 - 1e-9
        # collapse can only fail to occur where alpha or beta vanishes
        ok &= bool(np.all(np.isin(np.round(dead_alphas, 12), [0.0, 1.0])))
    # (d): matched beta phase, rho swept too
    r, t, e, a = np.meshgrid(rho, theta, eta, alpha, indexing="ij")
    matched = np.mod(t + e, 2 * np.pi)
    params = [r.ravel(), t.ravel(), e.ravel(), a.ravel(), matched.ravel()]
    worst, dead_alphas = _down_slice_maximal(params)
    ok &= worst > 1 - 1e-9
    ok &= bool(np.all(np.isin(np.round(dead_alphas, 12), [0.0, 1.0])))

    # up outcome: maximal exactly when the modulus condition holds
    rng = np.random.default_rng(103)
    checked = 0
    for _ in range(400):
        coin, shift = random_pair(rng)
        result = measure_spin(evolve(coin, shift, 2), Spin.UP)
        if result.probability <= 1e-12:
            continue
        checked += 1
        maximal = normalized_entanglement(result.amps) > 1 - 1e-9
        if max_condition_up(coin, shift) != maximal:
            ok = False
    ok &= checked > 300
    assert report(
        "c03",
        ok,
        "down collapse at step 2 maximal across the rho=0, rho=1, rho=1/2 and "
        "matched-phase slices; up maximal iff the modulus condition holds",
    )


def test_criterion_04_headline_step4_cases():
    cases = []
    for beta_arg in (QUARTER, 3 * QUARTER):
        for a in (0.15, 0.37, 0.5, NEAR_BALANCED, 0.85):
            cases.append(("hadamard", hadamard_coin(), ShiftOperator(alpha=a, beta_arg=beta_arg)))
    for a in (0.15, 0.37, 0.5, NEAR_BALANCED, 0.85):
        cases.append(("kempe", kempe_coin(), ShiftOperator(alpha=a)))
    for beta_arg in (0.0, 0.9, QUARTER, 2.3, np.pi, 4.0, 3 * QUARTER, 5.7):
        cases.append(("z", z_coin(), balanced_shift(beta_arg)))

    ok = True
    for label, coin, shift in cases:
        result = measure_spin(evolve(coin, shift, 4), Spin.DOWN)
        value = normalized_entanglement(result.amps)
        good = (
            result.term_count == 4
            and abs(value - 1.0) < 1e-6
            and abs(entropy(result.amps) - 2.0) < 1e-6
            and abs(result.probability - 0.25) < 1e-6
        )
        if not good:
            ok = False
    assert report(
        "c04",
        ok,
        f"{len(cases)} parameter points give a four-term maximally entangled "
        "down collapse at step 4 with probability 1/4",
    )


def test_criterion_05_averaged_entanglement_vs_alpha():
    def down_up(shift):
        return (
            averaged_entanglement(hadamard_coin(), shift, 200, Spin.DOWN).value,
            averaged_entanglement(hadamard_coin(), shift, 200, Spin.UP).value,
        )

    left = [down_up(ShiftOperator(alpha=a))[0] for a in (0.65, 0.69, 0.70, 0.7071)]
    right = [down_up(ShiftOperator(alpha=a))[0] for a in (0.7141, 0.72, 0.75)]
    balanced_down, balanced_up = down_up(balanced_shift())
    ok = all(b > a for a, b in zip(left, left[1:]))
    ok &= all(a > b for a, b in zip(right, right[1:]))
    ok &= left[-1] >= 0.99
    ok &= balanced_down == 0.0 and balanced_up == 0.0
    for a in (0.69, 0.70, 0.7071, 0.7141, 0.72):
        down, up = down_up(ShiftOperator(alpha=a))
        ok &= up < down
    assert report(
        "c05",
        ok,
        "averaged entanglement rises toward 1 on both sides of the balanced "
        "point (>=0.99 at alpha=0.7071), drops to exactly 0 there, and the up "
        "outcome stays below the down outcome nearby",
    )


def _two_term_limit(k: int) -> float:
    """Independent oracle for the up outcome at odd step 2k+1 near the
    balanced kempe point: amplitude ratio (k+1):k, so the entropy is that
    of weights ((k+1)^2, k^2) / (2k^2 + 2k + 1)."""
    p = (k + 1) ** 2 / ((k + 1) ** 2 + k**2)
    return float(-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))


def test_criterion_06_kempe_alternation():
    shift = ShiftOperator(alpha=NEAR_BALANCED, beta_arg=QUARTER)
    downs = walk_entanglement_series(kempe_coin(), shift, 200, Spin.DOWN)
    ups = walk_entanglement_series(kempe_coin(), shift, 200, Spin.UP)

    ok = True
    maximal_down = 0
    for record in downs[1:]:
        if record.step % 2 == 0:
            ok &= record.normalized > 1 - 1e-9 and record.term_count == 2
            maximal_down += record.normalized > 1 - 1e-9
        else:
            ok &= record.normalized == 0.0
    # counting oracle: 100 maximal steps among 2..200 fixes the average
    ok &= maximal_down == 100
    avg_down = averaged_entanglement(kempe_coin(), shift, 200, Spin.DOWN).value
    avg_up = averaged_entanglement(kempe_coin(), shift, 200, Spin.UP).value
    ok &= abs(avg_down - maximal_down / 199) < 1e-12
    ok &= abs(avg_down - 0.5) < 0.01 and abs(avg_up - 0.5) < 0.01

    # up outcome: activity on the reversed parity, two-term states whose
    # entanglement climbs toward maximal per the ratio oracle
    previous = 0.0
    for record in ups[1:]:
        if record.step % 2 == 0:
            ok &= record.normalized == 0.0
        else:
            k = (record.step - 1) // 2
            ok &= record.term_count == 2
            ok &= abs(record.normalized - _two_term_limit(k)) < 1e-4
            ok &= record.normalized > previous
            previous = record.normalized
    assert report(
        "c06",
        ok,
        f"near-balanced kempe walk at beta phase pi/2 alternates exactly for the "
        f"down outcome (average {maximal_down}/199), the up outcome is active on "
        "odd steps with two-term entanglement climbing toward maximal; both "
        "averages within 0.01 of 1/2",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the up-outcome odd-step collapse has amplitude ratio (k+1):k, so its "
    "normalized entanglement approaches 1 without reaching it and the average "
    "cannot equal 99/199",
)
def test_criterion_06_up_odd_steps_maximal_literal():
    """Literal reading: up outcome maximal at every odd step, average 99/199."""
    shift = ShiftOperator(alpha=NEAR_BALANCED, beta_arg=QUARTER)
    ups = walk_entanglement_series(kempe_coin(), shift, 200, Spin.UP)
    for record in ups[1:]:
        if record.step % 2 == 1:
            assert record.normalized > 1 - 1e-9, f"not maximal at step {record.step}"


def test_criterion_07_kempe_alpha_independence():
    ok = True
    for outcome in Spin:
        values = [
            averaged_entanglement(kempe_coin(), ShiftOperator(alpha=a), 200, outcome).value
            for a in (0.2, 0.37, 0.6, BALANCED_ALPHA, 0.9)
        ]
        ok &= max(values) - min(values) < 1e-9
    assert report(
        "c07",
        ok,
        "averaged entanglement for the kempe coin with real beta is "
        "alpha-independent to 1e-9 for both outcomes",
    )


def test_criterion_08_z_coin_flatness_and_catalog():
    ok = True
    for alpha in (0.45, 0.8):
        values = [
            averaged_entanglement(z_coin(), ShiftOperator(alpha=alpha, beta_arg=b), 200, Spin.DOWN).value
            for b in (0.0, 0.7, 1.5, 2.9, 4.2, 5.6)
        ]
        ok &= max(values) - min(values) < 1e-9
    # down outcome at step 2: maximal two-term state, probability in (0.15, 0.5]
    for alpha in (0.4, 0.6, 0.8, 0.9):
        for beta_arg in (0.3, 1.1, 4.9):
            result = measure_spin(
                evolve(z_coin(), ShiftOperator(alpha=alpha, beta_arg=beta_arg), 2),
                Spin.DOWN,
            )
            value = normalized_entanglement(result.amps)
            ok &= value > 1 - 1e-9 and result.term_count == 2
            ok &= 0.15 < result.probability <= 0.5 + 1e-12
    balanced = measure_spin(evolve(z_coin(), balanced_shift(0.3), 2), Spin.DOWN)
    ok &= 0.15 < balanced.probability <= 0.5 + 1e-12
    # up outcome maximal only at the balanced point
    for alpha in (0.3, 0.5, 0.6, 0.8, 0.95):
        result = measure_spin(evolve(z_coin(), ShiftOperator(alpha=alpha, beta_arg=0.9), 2), Spin.UP)
        ok &= normalized_entanglement(result.amps) < 1 - 1e-9
    result = measure_spin(evolve(z_coin(), balanced_shift(0.9), 2), Spin.UP)
    ok &= normalized_entanglement(result.amps) > 1 - 1e-9
    ok &= abs(result.probability - 0.5) < 1e-6
    assert report(
        "c08",
        ok,
        "z-coin averages flat in the beta phase; down collapse at step 2 "
        "maximal with probability in (0.15, 0.5]; up maximal only at the "
        "balanced point with probability 1/2",
    )


def test_criterion_09_grid_search_desk_scale():
    step_counts: dict[int, int] = {}
    sample = []
    for hit in grid_search(
        grid_step=0.1, n_steps=10, mode=SearchMode.ISOLATED_MAX, p_threshold=0.15, workers=2
    ):
        step_counts[hit.step] = step_counts.get(hit.step, 0) + 1
        if len(sample) < 200 and (step_counts[hit.step] % 50000) == 1:
            sample.append(hit)
    ok = bool(step_counts) and set(step_counts) <= {2, 3, 4}
    for hit in sample:
        coin = CoinOperator(rho=hit.rho, theta=hit.theta, eta=hit.eta)
        shift = ShiftOperator(alpha=hit.alpha, beta_arg=hit.beta_arg)
        result = measure_spin(evolve(coin, shift, hit.step), hit.outcome)
        ok &= abs(result.probability - hit.probability) < 1e-9
        ok &= normalized_entanglement(result.amps) > 1 - 1e-9

    averaged = list(
        grid_search(
            grid_step=0.2,
            n_steps=50,
            mode=SearchMode.AVERAGED_HIGH,
            p_threshold=0.15,
            avg_threshold=0.99,
            workers=2,
        )
    )
    ok &= averaged == []
    assert report(
        "c09",
        ok,
        f"isolated scan (0.1 grid, 10 steps, P>0.15): hits only at steps "
        f"{sorted(step_counts)} with counts {[step_counts[s] for s in sorted(step_counts)]}, "
        "revalidated by standalone recomputation; averaged scan (0.2 grid, 50 steps) empty",
    )


def test_criterion_10_invariant_suite():
    rng = np.random.default_rng(107)
    ok = True

    # norm conservation over 1000 steps
    cases = [(hadamard_coin(), balanced_shift())]
    for _ in range(2):
        cases.append(random_pair(rng))
    for coin, shift in cases:
        ok &= abs(evolve(coin, shift, 1000).norm() - 1.0) < 1e-10

    # support, parity and probability budget
    coin, shift = random_pair(rng)
    for state in iter_steps(coin, shift, 40):
        n = state.step
        sites = state.sites()
        for amps in (state.amps_up, state.amps_down):
            occupied = sites[np.abs(amps) > 0]
            if occupied.size:
                ok &= int(np.max(np.abs(occupied))) <= n
                ok &= bool(np.all((occupied - n) % 2 == 0))
        total = (
            measure_spin(state, Spin.UP).probability
            + measure_spin(state, Spin.DOWN).probability
        )
        ok &= abs(total - 1.0) < 1e-12

    # shift unitarity, with a corrupted pair as the negative control
    for _ in range(100):
        _, shift = random_pair(rng)
        passed, residual = verify_shift_unitarity(shift)
        ok &= passed and residual < 1e-12
    ok &= orthonormality_residual(0.6, 0.8 + 1e-3) > 1e-12

    # entropy bounded by the term count
    coin, shift = random_pair(rng)
    for state in iter_steps(coin, shift, 60):
        for outcome in Spin:
            result = measure_spin(state, outcome)
            if result.term_count >= 1:
                ok &= entropy(result.amps) <= np.log2(max(result.term_count, 1)) + 1e-10

    # deterministic output for any worker count
    serial = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=1))
    parallel = list(grid_search(0.5, 5, SearchMode.ISOLATED_MAX, workers=2))
    ok &= serial == parallel

    assert report(
        "c10",
        ok,
        "norm drift < 1e-10 over 1000 steps, parity and support bounds hold, "
        "outcome probabilities sum to 1, shift unitarity residual < 1e-12 with "
        "corruption detected, entropy bounded by log2 N, worker count does not "
        "change results",
    )

"""Exact oracle for the walk engine at every step up to n = 200.

With rho = 9/25, theta = eta = 0 the coin is [[3, 4], [-4, 3]] / 5, and
with alpha = 3/5 the shift mix is [[3, 4], [-4, 3]] / 5 at beta phase 0
or [[3, 4i], [4i, 3]] / 5 at pi/2.  Every amplitude after n steps is then
a Gaussian integer over 25^n, so the walk evolves exactly in Python
integers and only the final logarithms round.
"""

import math

import numpy as np
import pytest

from tandemwalk import (
    CoinOperator,
    ShiftOperator,
    Spin,
    TERM_THRESHOLD,
    collapse_metrics,
    iter_steps,
    walk_batch,
)
from tandemwalk.core import _real_coins

N_STEPS = 200
COIN = ((3, 0), (4, 0)), ((-4, 0), (3, 0))
SHIFTS = {
    0.0: (((3, 0), (4, 0)), ((-4, 0), (3, 0))),
    np.pi / 2: (((3, 0), (0, 4)), ((0, 4), (3, 0))),
}


def _mix(m, a, b):
    """Row pair of the 2x2 Gaussian-integer matrix m applied to (a, b)."""
    def mul(c, z):
        return c[0] * z[0] - c[1] * z[1], c[0] * z[1] + c[1] * z[0]

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    return add(mul(m[0][0], a), mul(m[0][1], b)), add(mul(m[1][0], a), mul(m[1][1], b))


def exact_series(shift, n_steps):
    """Yield (P, N, E, normalized E) per step and spin row from an exact walk."""
    zero = (0, 0)
    up, down = [(1, 0)], [zero]
    for n in range(1, n_steps + 1):
        mixed = [_mix(shift, *_mix(COIN, a, b)) for a, b in zip(up, down)]
        up = [zero] + [m[0] for m in mixed]
        down = [m[1] for m in mixed] + [zero]
        metrics = []
        for amps in (up, down):
            weights = [re * re + im * im for re, im in amps]
            total = sum(weights)
            if total == 0:
                metrics.append((0.0, 0, 0.0, 0.0))
                continue
            # |c| > 1e-10  <=>  w / total > 1e-20, decided exactly
            n_terms = sum(1 for w in weights if w * 10**20 > total)
            e_bits = -math.fsum((w / total) * math.log2(w / total) for w in weights if w)
            cal = min(e_bits / math.log2(n_terms), 1.0) if n_terms >= 2 else 0.0
            metrics.append((total / 625**n, n_terms, e_bits, cal))
        yield n, metrics


@pytest.mark.parametrize("beta_arg", sorted(SHIFTS))
def test_engine_matches_exact_walk_to_step_200(beta_arg):
    """The reference walk of U and V (`iter_steps`) and the engine's real
    walk of r both match the exact walk."""
    coin = CoinOperator(rho=9 / 25, theta=0.0, eta=0.0)
    shift = ShiftOperator(alpha=3 / 5, beta_arg=beta_arg)
    states = iter_steps(coin, shift, N_STEPS)
    engine = walk_batch(_real_coins(**vars(coin), **vars(shift)), N_STEPS)
    assert TERM_THRESHOLD == 1e-10
    worst = 0.0
    for state, (n, real), (m, exact) in zip(states, engine, exact_series(SHIFTS[beta_arg], N_STEPS)):
        assert state.step == n == m
        for amps in (np.stack([state.amps_up, state.amps_down]), real[:, 0]):
            got = collapse_metrics(amps)
            for spin in Spin:
                p, n_terms, e_bits, cal = exact[spin.row]
                assert got.term_count[spin.row] == n_terms, (n, spin)
                worst = max(
                    worst,
                    abs(got.probability[spin.row] - p),
                    abs(got.entropy[spin.row] - e_bits),
                    abs(got.normalized[spin.row] - cal),
                )
    assert n == N_STEPS
    assert worst < 1e-12

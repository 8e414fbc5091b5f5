"""Closed forms for the first two walk steps, used as an independent
oracle against the numeric engine.
"""

import numpy as np
from dataclasses import dataclass

from .core import CoinOperator, ShiftOperator, Spin, phase_factor

__all__ = [
    "MODULUS_ATOL",
    "Step2State",
    "phi1",
    "psi_up_2",
    "psi_down_2",
    "max_condition_up",
]

#: tolerance for comparing coefficient moduli; looser than machine
#: precision to absorb cancellation in the four-term down coefficients
MODULUS_ATOL = 1e-9


@dataclass(frozen=True)
class Step2State:
    """Unnormalized collapsed position state after the second step.

    For an up outcome the two terms sit at sites +2 and 0; for a down
    outcome at 0 and -2.  coeff_plus belongs to the more positive site.
    The squared moduli sum to the outcome probability because the
    underlying two-step state is normalized.
    """

    outcome: Spin
    coeff_plus: complex
    coeff_minus: complex

    @property
    def sites(self) -> tuple[int, int]:
        return (2, 0) if self.outcome is Spin.UP else (0, -2)

    @property
    def probability(self) -> float:
        return abs(self.coeff_plus) ** 2 + abs(self.coeff_minus) ** 2

    def normalized_amps(self) -> np.ndarray:
        """Normalized amplitudes ordered (coeff_plus, coeff_minus)."""
        p = self.probability
        if p == 0.0:
            return np.zeros(0, dtype=np.complex128)
        return np.array([self.coeff_plus, self.coeff_minus]) / np.sqrt(p)


def _terms(coin: CoinOperator, shift: ShiftOperator):
    """(w, stay, flip, alpha, beta) = (e^{-i(theta+eta)}, sqrt(rho),
    sqrt(1-rho), alpha, beta), the terms of every closed form below."""
    w = phase_factor(-(coin.theta + coin.eta))
    return w, np.sqrt(coin.rho), np.sqrt(1.0 - coin.rho), shift.alpha, shift.beta


def phi1(coin: CoinOperator, shift: ShiftOperator) -> tuple[complex, complex]:
    """Amplitudes of |up>(x)|1,1> and |down>(x)|-1,-1> after one step."""
    w, stay, flip, alpha, beta = _terms(coin, shift)
    up = alpha * stay - beta * flip * w
    down = -(beta.conjugate() * stay + alpha * flip * w)
    return complex(up), complex(down)


def psi_up_2(coin: CoinOperator, shift: ShiftOperator) -> Step2State:
    """Unnormalized position state after two steps and an up measurement."""
    w, stay, flip, alpha, beta = _terms(coin, shift)
    branch = alpha * stay - beta * flip * w
    coeff_plus = branch * branch
    coeff_minus = -phase_factor(-2.0 * coin.eta) * abs(alpha * flip + beta * stay * w) ** 2
    return Step2State(
        outcome=Spin.UP, coeff_plus=complex(coeff_plus), coeff_minus=complex(coeff_minus)
    )


def psi_down_2(coin: CoinOperator, shift: ShiftOperator) -> Step2State:
    """Unnormalized position state after two steps and a down measurement.

    The two coefficients always share a modulus, whatever the coin and
    shift parameters: a down measurement at the second step yields a
    maximally entangled two-term state whenever it can occur at all.
    """
    w, _, _, alpha, beta = _terms(coin, shift)
    cross = np.sqrt(coin.rho * (1.0 - coin.rho))
    bconj = beta.conjugate()
    rho = coin.rho
    coeff_zero = (
        alpha * beta * (1.0 - rho) * w * w
        + abs(beta) ** 2 * cross * w
        - alpha * alpha * cross * w
        - alpha * bconj * rho
    )
    back_phase = phase_factor(-2.0 * coin.eta)
    coeff_back = (
        alpha * bconj * (1.0 - rho) * back_phase
        + bconj * bconj * cross * phase_factor(coin.theta - coin.eta)
        - alpha * alpha * cross * w * back_phase
        - alpha * bconj * rho * back_phase
    )
    return Step2State(
        outcome=Spin.DOWN, coeff_plus=complex(coeff_zero), coeff_minus=complex(coeff_back)
    )


def max_condition_up(coin: CoinOperator, shift: ShiftOperator) -> bool:
    """Whether an up measurement at step 2 yields maximal entanglement.

    True iff |alpha sqrt(rho) - beta sqrt(1-rho) e^{-i(theta+eta)}| equals
    |alpha sqrt(1-rho) + beta sqrt(rho) e^{-i(theta+eta)}|, i.e. iff the
    two coefficients of the up-collapsed step-2 state have equal moduli,
    to within MODULUS_ATOL.
    """
    w, stay, flip, alpha, beta = _terms(coin, shift)
    lhs = abs(alpha * stay - beta * flip * w)
    rhs = abs(alpha * flip + beta * stay * w)
    return bool(abs(lhs - rhs) < MODULUS_ATOL)

"""Entanglement measures over collapsed position states.

The walker-walker entanglement of a collapsed state sum_i c_i |i,i> is
its von Neumann entropy E = -sum |c_i|^2 log2 |c_i|^2 in bits.  The
normalized measure divides by log2 N, where N counts amplitudes above
the term threshold, so a value of 1 always means "maximal for the number
of terms present".  The averaged measure is the mean of the normalized
values over steps 2..n of a walk, evaluated as if an independent copy of
the walk were measured at each step.  Every measure here is computed by
`core.collapse_metrics`, the same function the batch searches use.
"""

import numpy as np
from dataclasses import dataclass

from .core import (
    CoinOperator,
    ShiftOperator,
    Spin,
    collapse_metrics,
    normalized_ratio,
    walk_batch,
)

__all__ = [
    "entropy",
    "term_count",
    "normalized_entanglement",
    "EntanglementRecord",
    "AveragedEntanglement",
    "walk_entanglement_series",
    "averaged_entanglement",
]


def _normalized_metrics(amps: np.ndarray):
    """Collapse metrics of amplitudes that must already be normalized."""
    amps = np.asarray(amps, dtype=np.complex128)
    total = float(np.sum(amps.real * amps.real + amps.imag * amps.imag))
    if abs(total - 1.0) > 1e-10:
        raise ValueError(
            f"position amplitudes must be normalized: sum |c|^2 = {total!r}"
        )
    return collapse_metrics(amps)


def entropy(amps: np.ndarray) -> float:
    """Von Neumann entropy of normalized position amplitudes, in bits.

    Zero-probability entries contribute nothing (0 log 0 = 0).  Raises
    ValueError when sum |c|^2 is more than 1e-10 from 1, since the
    entropy of an unnormalized vector is meaningless.
    """
    return float(_normalized_metrics(amps).entropy)


def term_count(amps: np.ndarray) -> int:
    """Number of amplitudes whose normalized modulus exceeds the term threshold."""
    return int(collapse_metrics(np.asarray(amps, dtype=np.complex128)).term_count)


def normalized_entanglement(amps: np.ndarray, n_terms: int | None = None) -> float:
    """Entropy divided by its maximum log2 N for the retained terms.

    N is the term count of amps unless n_terms is given.  Returns 0 when
    fewer than two terms survive the threshold.
    """
    metrics = _normalized_metrics(amps)
    if n_terms is None:
        return float(metrics.normalized)
    return float(normalized_ratio(metrics.entropy, n_terms))


@dataclass(frozen=True)
class EntanglementRecord:
    """Entanglement of a hypothetical measurement after a given step."""

    step: int
    outcome: Spin
    probability: float
    term_count: int
    entropy: float
    normalized: float

    @property
    def zero_probability(self) -> bool:
        """True when the outcome cannot occur and the record is the
        zero-entanglement convention rather than a measured value."""
        return self.probability == 0.0


@dataclass(frozen=True)
class AveragedEntanglement:
    """Mean normalized entanglement over steps 2..n_steps of a walk."""

    n_steps: int
    outcome: Spin
    value: float


def _series(coin, shift, n_steps, outcomes):
    """One evolution, hypothetical collapses at every step for each outcome."""
    u, v = coin.matrix()[None], shift.matrix()[None]
    steps = [collapse_metrics(amps[:, 0]) for _, amps in walk_batch(u, v, n_steps)]
    records = {}
    for outcome in outcomes:
        row = outcome.row
        records[outcome] = [
            EntanglementRecord(
                step=n,
                outcome=outcome,
                probability=float(m.probability[row]),
                term_count=int(m.term_count[row]),
                entropy=float(m.entropy[row]),
                normalized=float(m.normalized[row]),
            )
            for n, m in enumerate(steps, start=1)
        ]
    return records


def walk_entanglement_series(
    coin: CoinOperator,
    shift: ShiftOperator,
    n_steps: int,
    outcome: Spin,
) -> list[EntanglementRecord]:
    """Per-step entanglement records for steps 1..n_steps.

    The walk itself is never collapsed: each record describes a
    measurement on an independent copy stopped at that step, which is
    what evolving a fresh replica per step would produce.
    """
    if n_steps < 2:
        raise ValueError(f"n_steps must be at least 2, got {n_steps}")
    return _series(coin, shift, n_steps, (outcome,))[outcome]


def averaged_entanglement(
    coin: CoinOperator,
    shift: ShiftOperator,
    n_steps: int,
    outcome: Spin,
) -> AveragedEntanglement:
    """Average the normalized entanglement over steps 2..n_steps.

    Step 1 is excluded: a single step always yields a one-term collapsed
    state and would only dilute the average.  Steps where the outcome has
    zero probability contribute 0.
    """
    records = walk_entanglement_series(coin, shift, n_steps, outcome)
    value = sum(r.normalized for r in records[1:]) / (n_steps - 1)
    return AveragedEntanglement(n_steps=n_steps, outcome=outcome, value=value)

"""Entanglement measures over collapsed position states.

The walker-walker entanglement of a collapsed state sum_i c_i |i,i> is
its von Neumann entropy E = -sum |c_i|^2 log2 |c_i|^2 in bits.  The
normalized measure divides by log2 N, where N counts amplitudes above
the term threshold, so a value of 1 always means "maximal for the number
of terms present".  The averaged measure is the mean of the normalized
values over steps 2..n of a walk, evaluated as if an independent copy of
the walk were measured at each step.  Every measure here is computed by
`core.collapse_metrics`.  The per-step series (`_metric_series`) and the
average (`_averaged`) live here alone, over a batch of walks: the public
functions run a batch of one, and `sweep` and the CLI index the same
arrays.  Each measure depends only on r (`core.invariant`), so the helpers
take one input, a (B, 2, 2) float64 stack of real coins of r
(`core._real_coins`), never the complex U and V, whose reference walk
(`core.iter_steps`) agrees to rounding.  Both collapse the rows of
`core._padded_walk`, one `np.matmul` a step, zero-padded to a width set by
the step alone, a finished block of steps per call, through the one block
loop `core._collapsed_blocks`: the series stacks the blocks, and the
average adds each block's rows in step order and drops dead walks at the
block's end.  A walk's values do not depend on its batch or block, and the
average is the mean of the series, summed step by step, to the bit.
"""

import numpy as np
from dataclasses import dataclass

from .core import (
    CoinOperator,
    CollapseMetrics,
    ShiftOperator,
    Spin,
    _collapsed_blocks,
    _real_coins,
    collapse_metrics,
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
    metrics = collapse_metrics(np.asarray(amps, dtype=np.complex128))
    if abs(metrics.probability - 1.0) > 1e-10:
        total = float(metrics.probability)
        raise ValueError(f"position amplitudes must be normalized: sum |c|^2 = {total!r}")
    return metrics


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


def normalized_entanglement(amps: np.ndarray) -> float:
    """Entropy divided by its maximum log2 N, N the term count of amps.

    Returns 0 when fewer than two terms survive the threshold.
    """
    return float(_normalized_metrics(amps).normalized)


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


def _metric_series(coins, n_steps: int) -> CollapseMetrics:
    """`collapse_metrics` after each of steps 1..n_steps of the walks of
    the real coin stack `coins`, each field stacked into an
    (n_steps, 2, B) array indexed by step - 1, `Spin.row`, then walk.

    Steps collapse a finished `core._padded_walk` block at a time
    (`core._collapsed_blocks`), each row zero-padded to its width class,
    so a walk's values are the same to the bit alone, in any batch and
    at any block size, and equal the values `_averaged` and the searches
    collapse.  n_steps >= 1."""
    blocks = (metrics for _, metrics in _collapsed_blocks(coins, n_steps))
    return CollapseMetrics(*map(np.concatenate, zip(*blocks)))


def _averaged(coins, n_steps, p_threshold=-np.inf, avg_threshold=-np.inf):
    """Mean normalized E over steps 2..n_steps (n_steps >= 2), the least P
    over those steps and the last step's N of the walks of the real coin
    stack `coins` that can still have a mean above avg_threshold with
    every P above p_threshold.

    Returns (walks, mean, min_p, last_n): the indices of those walks in
    the batch, ascending, then one (2, len(walks)) array each by
    `Spin.row`.  The steps collapse a finished block of
    `core._collapsed_blocks` at a time, as `_metric_series` does, and
    each block's rows add up in step order.  At the end of a block, a
    (walk, spin) row is dead once its least P is at most p_threshold, or
    once its mean could not exceed avg_threshold even if every remaining
    step reached the cap 1 of `normalized_ratio`.  A walk whose rows are
    both dead leaves the batch at the end of the block it dies in, so
    the later blocks only pay for the others; their numbers are the same
    as in a batch that dropped nothing.  The defaults drop no walk.
    """
    walks = np.arange(coins.shape[0])
    total, min_p = np.zeros((2, walks.size)), np.ones((2, walks.size))
    # the slack keeps summation rounding from dropping a mean just above avg_threshold
    floor = avg_threshold * (n_steps - 1) - 1e-9
    blocks, keep, n = _collapsed_blocks(coins, n_steps), None, 0
    while n < n_steps:
        n, metrics = blocks.send(keep)
        keep = None
        if n < 2:  # a block of step 1 alone
            continue
        # the block's rows from step 2 on: step 1 leaves one term and is left
        # out of the average
        later = slice(max(0, 2 - (n + 1 - len(metrics.normalized))), None)
        rows = zip(metrics.normalized[later], metrics.probability[later])
        for normalized, probability in rows:
            total += normalized
            np.minimum(min_p, probability, out=min_p)
        last_n = metrics.term_count[-1]
        live = ((min_p > p_threshold) & (total + (n_steps - n) > floor)).any(axis=0)
        if not live.all():
            keep = live
            walks, total, min_p = walks[keep], total[:, keep], min_p[:, keep]
            last_n = last_n[:, keep]
            if not walks.size:
                break
    return walks, total / (n_steps - 1), min_p, last_n


def _batch_of_one(coin: CoinOperator, shift: ShiftOperator, n_steps: int):
    """The real coin of one walk as a (1, 2, 2) stack, once n_steps >= 2
    is checked."""
    if n_steps < 2:
        raise ValueError(f"n_steps must be at least 2, got {n_steps}")
    return _real_coins(**vars(coin), **vars(shift))


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
    series = _metric_series(_batch_of_one(coin, shift, n_steps), n_steps)
    columns = (column[:, outcome.row, 0].tolist() for column in series)
    return [
        EntanglementRecord(n, outcome, *values)
        for n, values in enumerate(zip(*columns), start=1)
    ]


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
    mean = _averaged(_batch_of_one(coin, shift, n_steps), n_steps)[1]
    value = float(mean[outcome.row, 0])
    return AveragedEntanglement(n_steps=n_steps, outcome=outcome, value=value)

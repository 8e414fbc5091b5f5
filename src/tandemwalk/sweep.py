"""Parameter-space exploration: 1-D sweeps, five-parameter grid searches
and per-coin catalogs of maximal-entanglement events.

All three are one scan, `_scan`, over the product of parameter axes,
plus a reducer.  The scan cuts the product into chunks of consecutive
entries, sized so memory stays bounded, and builds each chunk's real
coins of r (`core.invariant`): every metric depends on r alone.  The
reducer evolves the chunk through the one stepping generator in `core`
(`_padded_walk` in float64), whose finished blocks one block loop
collapses (`core._collapsed_blocks`), into rows or hits, so rows and
hits carry the bits of the walk's series.  A sweep is four one-value
axes and the swept one; its rows index the per-step series and the
average of `entanglement` (`_metric_series`, `_averaged`), the same code
the single-walk functions run.
A search has points, the keys of a grid (`_key_walks`: points with equal
keys have equal metrics) or the points of a coin's catalog.  It maps
each point to its distinct real coin once (`_distinct_coins`) and scans
those coins alone, and `_fan_out` hands each coin's hits to its points
in grid order, a piece at a time.  The averaged search drops, at the
end of each block, the walks that can no longer become hits.
`grid_search` and `find_max_cases` turn the pieces of `_search` into
`MaxEntanglementHit` tuples; the CLI turns them into CSV text.  Search
chunks can go to worker processes; chunk boundaries depend only on the
grid, never on the worker count, so output order and content are
identical for any parallelism.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain
from math import prod
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import (
    BALANCED_ALPHA,
    PARAM_RANGES,
    CoinOperator,
    Spin,
    _checked,
    _collapsed_blocks,
    _domain,
    _real_coins,
    hadamard_coin,
    invariant,
    kempe_coin,
    z_coin,
)
from .entanglement import _averaged, _metric_series

__all__ = [
    "MAXIMAL_ATOL",
    "CoinFamily",
    "SweepMode",
    "SweepSpec",
    "SearchMode",
    "MaxEntanglementHit",
    "family_coin",
    "grid_axis",
    "sweep_1d",
    "grid_search",
    "find_max_cases",
]

#: normalized entanglement counts as maximal above 1 - MAXIMAL_ATOL
MAXIMAL_ATOL = 1e-9


class CoinFamily(Enum):
    HADAMARD = "hadamard"
    KEMPE = "kempe"
    Z = "z"
    GENERAL = "general"


class SweepMode(Enum):
    AVERAGED = "averaged"
    PER_STEP = "per-step"


class SearchMode(Enum):
    ISOLATED_MAX = "isolated"
    AVERAGED_HIGH = "averaged"


def family_coin(
    family: CoinFamily,
    rho: float | None = None,
    theta: float | None = None,
    eta: float | None = None,
) -> CoinOperator:
    """Coin for a named family, or a general coin from explicit parameters."""
    if family is CoinFamily.HADAMARD:
        return hadamard_coin()
    if family is CoinFamily.KEMPE:
        return kempe_coin()
    if family is CoinFamily.Z:
        return z_coin()
    if rho is None or theta is None or eta is None:
        raise ValueError("the general coin family needs rho, theta and eta")
    return CoinOperator(rho=rho, theta=theta, eta=eta)


def _below(lo: float, step: float, count: int, bound: float) -> int:
    """How many of lo + step k, k = 0..count - 1, lie below bound.  They
    ascend with k, so a bisection finds the cut without building them."""
    k, top = 0, count
    while k < top:
        mid = (k + top) // 2
        k, top = (mid + 1, top) if lo + step * mid < bound else (k, mid)
    return k


def _axis_size(lo: float, hi: float, closed: bool, step: float) -> int | float:
    """len(_axis(lo, hi, closed, step)), counted without building the axis;
    inf where (hi - lo) / step overflows a float, as it can at a subnormal
    step, so no float grid could be counted or built."""
    steps = (hi - lo) / step
    if steps == np.inf:
        return np.inf
    return _below(lo, step, int(np.floor(steps + 1e-9)) + 1, hi - 1e-12) + closed


def _axis(lo: float, hi: float, closed: bool, step: float) -> np.ndarray:
    """lo, lo + step, ... below hi, then hi itself if the range is closed.

    Values within 1e-12 of hi are dropped with those above it, so rounding
    never puts a point outside [lo, hi] or a near copy of hi beside hi.
    """
    values = lo + step * np.arange(_axis_size(lo, hi, False, step))
    return np.append(values, hi) if closed else values


def _grid(name: str, step: float) -> tuple[float, float, bool, float]:
    """(lo, hi, closed, step) of a grid over a parameter's full range, once
    the step is checked."""
    lo, hi, closed = _domain(name)
    if not 0.0 < step < np.inf:  # NaN too
        raise ValueError(f"grid step must be positive and finite, got {step}")
    return lo, hi, closed, step


def grid_axis(name: str, step: float) -> np.ndarray:
    """Grid over a parameter's full range.

    Closed ranges include both endpoints (the upper one is appended when
    the step does not land on it); the periodic beta_arg range excludes
    2 pi, which is the same point as 0.
    """
    return _axis(*_grid(name, step))


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep of a single coin or shift parameter.

    fixed supplies the non-swept parameters (rho/theta/eta for the
    general coin, alpha/beta_arg for the shift; alpha defaults to the
    balanced point and beta_arg to 0).  The spec holds each fixed value
    as the operators would, checked and a beta_arg reduced mod 2 pi.  An
    alpha sweep always contains the exact balanced alpha when it lies
    inside [start, stop], because the averaged entanglement is
    discontinuous there.  A spec's range spans at most 10^7 grid steps,
    and a per-step spec holds at most 2 x 10^7 rows (values x outcomes x
    n_steps).
    """

    coin_family: CoinFamily
    swept: str
    start: float
    stop: float
    step: float
    n_steps: int
    fixed: dict = field(default_factory=dict)
    outcomes: tuple[Spin, ...] = (Spin.DOWN, Spin.UP)
    mode: SweepMode = SweepMode.AVERAGED

    def __post_init__(self):
        lo, hi, closed = _domain(self.swept)
        coin_params = {"rho", "theta", "eta"}
        if self.coin_family is not CoinFamily.GENERAL and self.swept in coin_params:
            raise ValueError(
                f"cannot sweep {self.swept!r} with the fixed {self.coin_family.value} coin"
            )
        top_ok = self.stop <= hi if closed else self.stop < hi + 1e-12
        if not (lo <= self.start <= self.stop and top_ok):
            raise ValueError(
                f"swept range [{self.start}, {self.stop}] leaves the "
                f"{self.swept} domain [{lo}, {hi}{']' if closed else ')'}"
            )
        if not 0.0 < self.step < np.inf:  # NaN too
            raise ValueError(f"sweep step must be positive and finite, got {self.step}")
        if (self.stop - self.start) / self.step > 1e7:  # values() builds the whole grid
            raise ValueError(f"sweep step {self.step} spans more than 10^7 grid steps")
        minimum = 2 if self.mode is SweepMode.AVERAGED else 1
        if self.n_steps < minimum:
            raise ValueError(f"n_steps must be at least {minimum}, got {self.n_steps}")
        if self.mode is SweepMode.PER_STEP:  # sweep_1d holds a row per value, outcome and step
            rows = self._size() * len(self.outcomes) * self.n_steps
            if rows > 2 * 10**7:  # what the value bound allows an averaged sweep
                raise ValueError(f"per-step sweep gives {rows:,} rows, more than 2 x 10^7")
        if unknown := self.fixed.keys() - PARAM_RANGES.keys():
            raise ValueError(f"unknown fixed parameter {min(unknown)!r}")
        fixed = {key: float(_checked(key, value)) for key, value in self.fixed.items()}
        object.__setattr__(self, "fixed", fixed)

    def _grid(self) -> tuple[float, float, bool, float]:
        """(lo, hi, closed, step) of the swept grid, as `values` describes it."""
        _, hi, closed = PARAM_RANGES[self.swept]
        return self.start, self.stop, closed or self.stop < hi - 1e-12, self.step

    def _size(self) -> int:
        """len(values()), counted without building them."""
        lo, hi, _, step = grid = self._grid()
        size = _axis_size(*grid)
        if self.swept == "alpha" and lo <= BALANCED_ALPHA < hi:  # alpha's range is closed
            k = _below(lo, step, size - 1, BALANCED_ALPHA)  # the grid values below it
            size += k == size - 1 or lo + step * k != BALANCED_ALPHA
        return size

    def values(self) -> np.ndarray:
        """Swept grid values in ascending order, every one in [start, stop].

        The grid ends exactly at stop, except where a beta_arg range
        reaches 2 pi, which is the same phase as 0 and is left out.
        """
        values = _axis(*self._grid())
        if self.swept == "alpha" and self.start <= BALANCED_ALPHA <= self.stop:
            values = np.union1d(values, BALANCED_ALPHA)
        return values


def sweep_1d(spec: SweepSpec) -> tuple[list[str], list[tuple]]:
    """Run a 1-D sweep and return (header, rows).

    Averaged mode emits one row (value, outcome, average) per grid point
    and outcome; per-step mode emits one row per step with probability,
    term count, entropy and normalized entanglement.  Row order follows
    the grid, then the spec's outcome order.
    """
    n = spec.n_steps
    point = {"alpha": BALANCED_ALPHA, "beta_arg": 0.0, **spec.fixed}
    if spec.coin_family is not CoinFamily.GENERAL:
        coin = family_coin(spec.coin_family)
        point.update(rho=coin.rho, theta=coin.theta, eta=coin.eta)
    elif not {"rho", "theta", "eta"} <= point.keys() | {spec.swept}:
        raise ValueError("the general coin family needs rho, theta and eta")
    axes = [
        spec.values() if name == spec.swept else np.array([point[name]], dtype=np.float64)
        for name in PARAM_RANGES
    ]
    if spec.mode is SweepMode.AVERAGED:
        header, reduce = [spec.swept, "outcome", f"avg_E_{n}"], _averaged_rows
    else:
        header = [spec.swept, "outcome", "step", "P", "N", "E_bits", "normalized_E"]
        reduce = _per_step_rows
    swept = list(PARAM_RANGES).index(spec.swept)
    scan = _scan(axes, n, reduce, swept, spec.outcomes)
    return header, list(chain.from_iterable(rows for _, rows in scan))


class MaxEntanglementHit(NamedTuple):
    """One parameter point whose walk reached the search criterion.

    The fields are the columns of `search`'s CSV, in order.
    """

    rho: float
    theta: float
    eta: float
    alpha: float
    beta_arg: float
    step: int
    outcome: Spin
    normalized: float
    probability: float
    term_count: int


# ---------------------------------------------------------------------------
# the scan and its reducers

#: spins in the order of the engine's rows
_SPINS = tuple(sorted(Spin, key=lambda spin: spin.row))


#: points per fan-out chunk, and about the hits per piece it is cut into;
#: a search holds one piece's row texts at a time, so this bounds its memory.
#: At 2^14 a piece's index arrays, row texts and their join are small
#: enough for the allocator to reuse from piece to piece instead of
#: faulting in fresh pages
_PIECE = 1 << 14


def _auto_chunk(n_steps: int) -> int:
    # a (batch, n + 1) float64 array of about 2 MB: the walk and collapse
    # temporaries around it cost several times that
    return max(4096, (1 << 18) // (n_steps + 1))


def _scan(axes, n_steps, reduce, *args, workers=1) -> Iterator:
    """Yield `(start, reduce(params, coins, n_steps, *args))` for each
    chunk of the product of `axes`, in order; start is the flat index of
    the chunk's first point.

    An axis holds one parameter, (size,), or k that move together,
    (size, k); the product's rows are the five parameters in
    `PARAM_RANGES` order, the last axis running fastest.  params are the
    chunk's five parameter columns, and coins the (B, 2, 2) float64
    stack of their real coins (`core._real_coins`).  Chunks hold
    `_auto_chunk` points.  workers > 1 spreads them over that many
    processes, capped at the chunk count, so one chunk starts none.
    """
    total = int(np.prod([len(axis) for axis in axes]))
    chunk = _auto_chunk(n_steps)
    tasks = [
        (axes, start, min(start + chunk, total), n_steps, reduce, args)
        for start in range(0, total, chunk)
    ]
    processes = min(workers, len(tasks))
    if processes > 1:
        from multiprocessing import get_context

        with get_context().Pool(processes=processes) as pool:
            yield from pool.imap(_scan_chunk, tasks)
    else:
        yield from map(_scan_chunk, tasks)


def _points(axes, index) -> list[np.ndarray]:
    """The five parameter columns of the points at flat indices `index` of `_scan`'s axes."""
    subs = np.unravel_index(index, [len(axis) for axis in axes])
    return [row for axis, sub in zip(axes, subs) for row in np.atleast_2d(axis[sub].T)]


def _scan_chunk(task):
    """One chunk of `_scan`: its parameter columns, real coins, then the reducer."""
    axes, start, stop, n_steps, reduce, args = task
    params = _points(axes, np.arange(start, stop))
    return start, reduce(params, _real_coins(*params), n_steps, *args)


def _averaged_rows(params, coins, n_steps, swept, outcomes) -> list[tuple]:
    """Sweep rows (value, outcome, mean normalized E), by walk then outcome."""
    mean = _averaged(coins, n_steps)[1]
    return [
        (value, outcome.value, float(mean[outcome.row, j]))
        for j, value in enumerate(params[swept].tolist())
        for outcome in outcomes
    ]


def _per_step_rows(params, coins, n_steps, swept, outcomes) -> list[tuple]:
    """Sweep rows (value, outcome, step, P, N, E, normalized E), by walk,
    then outcome, then step."""
    columns = _metric_series(coins, n_steps)
    rows = []
    for j, value in enumerate(params[swept].tolist()):
        for outcome in outcomes:
            metrics = (column[:, outcome.row, j].tolist() for column in columns)
            rows.extend(
                (value, outcome.value, a, *m) for a, m in enumerate(zip(*metrics), start=1)
            )
    return rows


def _distinct_coins(axes):
    """(first, inverse): the flat index into the product of `axes` of the
    first point of each distinct real coin, by the bits of its (a, b) row,
    and the index into first of each point's coin.  Points of equal coins
    have equal metrics, so a search walks the points first alone."""
    a, b = invariant(*_points(axes, np.arange(np.prod([len(axis) for axis in axes]))))
    _, first, inverse = np.unique(a + 1j * b, return_index=True, return_inverse=True)
    return first, inverse


def _isolated_hits(params, coins, n_steps, p_threshold, maximal_atol):
    """Hit columns (walk, step, row, normalized E, P, N) of every
    (walk, step, spin) whose collapse is maximally entangled with
    probability above p_threshold, by walk, then step, then up before
    down.  The steps collapse a finished block at a time through
    `core._collapsed_blocks`, as the per-step series does.
    """
    found = []  # n_steps >= 2, so some block reaches step 2
    for n, metrics in _collapsed_blocks(coins, n_steps):
        if n < 2:  # a block of step 1 alone: one term, never entangled
            continue
        hit = (metrics.normalized > 1.0 - maximal_atol) & (metrics.probability > p_threshold)
        steps, rows, walks = np.nonzero(hit)
        found.append((
            walks,
            steps + (n + 1 - len(hit)),
            rows,
            metrics.normalized[hit],
            metrics.probability[hit],
            metrics.term_count[hit],
        ))
    columns = [np.concatenate(column) for column in zip(*found)]
    order = np.lexsort(columns[2::-1])
    return [column[order] for column in columns]


def _averaged_hits(params, coins, n_steps, p_threshold, avg_threshold):
    """Hit columns, as `_isolated_hits` returns them, of every (walk, spin)
    whose mean normalized E exceeds avg_threshold with every P above
    p_threshold, by walk, then up before down; the hit carries the mean,
    the least P and the last step's N.
    """
    walks, mean, min_p, last_n = _averaged(coins, n_steps, p_threshold, avg_threshold)
    hit = (mean > avg_threshold) & (min_p > p_threshold)
    cols, rows = np.nonzero(hit.T)
    return [
        walks[cols], np.full(cols.size, n_steps), rows,
        mean[rows, cols], min_p[rows, cols], last_n[rows, cols],
    ]


def _fan_out(axes, walk_axes, key, n_steps, reduce, *args, workers=1) -> Iterator:
    """Yield `(points, hits, columns)` per piece of a search of the grid
    `axes`: one entry per point and hit of its coin, in grid order.

    walk_axes are `_scan` axes of one entry per key, and key maps index
    arrays into `axes` to keys, broadcasting one (m, 1) column per
    leading axis against a (1, n_beta) row of beta_arg indices.  Each
    distinct real coin of the keys (`_distinct_coins`) walks once, in
    `_scan` chunks of coins, with `reduce` and args.  points are flat
    indices into the grid, and hits index the coin-hit columns (step,
    spin row, normalized E, P, N), which go out whole with every piece;
    a piece's own arrays are sized by its points and hits.  Points go in
    chunks of whole beta_arg rows, at most max(`_PIECE`, n_beta) points,
    each cut into pieces of about `_PIECE` hits; with no hit at all no
    point is visited."""
    walked, inverse = _distinct_coins(walk_axes)
    coins = [np.column_stack(_points(walk_axes, walked))]  # one axis of five columns
    scan = _scan(coins, n_steps, reduce, *args, workers=workers)
    found = [(start + walks, *rest) for start, (walks, *rest) in scan]
    if not any(walks.size for walks, *_ in found):
        return
    hit_coins, *columns = (np.concatenate(column) for column in zip(*found))
    counts = np.bincount(hit_coins, minlength=walked.size)
    first = np.cumsum(counts) - counts
    *shape, n_beta = [axis.size for axis in axes]
    n_rows, chunk = int(np.prod(shape)), max(1, _PIECE // n_beta)
    beta = np.arange(n_beta)[None]
    for row in range(0, n_rows, chunk):
        heads = np.unravel_index(np.arange(row, min(row + chunk, n_rows)), shape)
        point_coins = inverse[key([head[:, None] for head in heads] + [beta])].ravel()
        ends = np.cumsum(counts[point_coins])
        cuts = [0, *(np.flatnonzero(np.diff(ends // _PIECE)) + 1).tolist(), ends.size]
        start = row * n_beta
        for lo, hi in zip(cuts, cuts[1:]):
            # each point takes the counts[c] consecutive hits of its coin c from first[c] on
            coin = point_coins[lo:hi]
            n = counts[coin]
            points = np.repeat(np.arange(lo, hi), n)
            hits = np.arange(points.size) + np.repeat(first[coin] - (np.cumsum(n) - n), n)
            yield start + points, hits, columns


def _hits(axes, pieces) -> Iterator[MaxEntanglementHit]:
    """The `MaxEntanglementHit` of each entry of `_fan_out`'s pieces."""
    shape = [axis.size for axis in axes]
    for points, hits, (steps, rows, *metrics) in pieces:
        subs = np.unravel_index(points, shape)
        params = [axis[sub].tolist() for axis, sub in zip(axes, subs)]
        step, spins = steps[hits].tolist(), [_SPINS[r] for r in rows[hits].tolist()]
        columns = (column[hits].tolist() for column in metrics)
        yield from map(MaxEntanglementHit._make, zip(*params, step, spins, *columns))


def _key_walks(axes):
    """([rho, rest], key, n_keys): `_scan` axes of one entry per key of the
    grid `axes`, at the key's first point, and the map of index arrays
    into `axes`, flat or broadcasting, to keys.  The key (rho index,
    (|m|, c mod 2), alpha index) fixes r = |W00| and so every metric, where
    beta_arg - theta - eta = m h - c pi (README, "The engine")."""
    rho, theta, eta, alpha, beta_arg = axes
    shape = (theta.size, eta.size, beta_arg.size)
    t, e, b = np.indices(shape).reshape(3, -1)  # grid order at fixed rho and alpha
    end = np.arange(theta.size) == theta.size - 1
    lattice = np.where(end, 0, np.arange(theta.size))
    code = 2 * np.abs(b - lattice[t] - lattice[e]) + (end[t] ^ end[e])  # 2 |m| + c mod 2
    _, first, classes = np.unique(code, return_index=True, return_inverse=True)
    classes = classes.reshape(shape)
    c, a = np.divmod(np.arange(first.size * alpha.size), alpha.size)
    t, e, b = t[first][c], e[first][c], b[first][c]
    rest = np.column_stack([theta[t], eta[e], alpha[a], beta_arg[b]])

    def key(subs):
        return (subs[0] * first.size + classes[subs[1], subs[2], subs[4]]) * alpha.size + subs[3]

    return [rho, rest], key, rho.size * len(rest)


def grid_search(
    grid_step: float,
    n_steps: int,
    mode: SearchMode,
    p_threshold: float = 0.15,
    avg_threshold: float = 0.99,
    maximal_atol: float = MAXIMAL_ATOL,
    workers: int | None = None,
) -> Iterator[MaxEntanglementHit]:
    """Scan the full (rho, theta, eta, alpha, beta_arg) grid, streaming hits.

    ISOLATED_MAX reports every (point, step, outcome) whose single-step
    normalized entanglement is maximal with probability above
    p_threshold.  AVERAGED_HIGH reports points whose average over steps
    2..n_steps exceeds avg_threshold while every per-step probability
    stays above p_threshold; its hits carry the average in `normalized`
    and the worst per-step probability in `probability`, and it needs
    0 <= avg_threshold < 1.  A walk drops out of its chunk mid-walk once
    neither outcome can become a hit any more (see `_averaged`); each
    walk's arithmetic does not depend on which others share its batch,
    so the hits are the same, to the bit, as those of a full run.

    Each distinct real coin of the grid's keys (see `_key_walks`) walks
    once and gives its hits to every point of the keys with that coin.  A
    hit's values are
    those of its walk's `walk_entanglement_series`, to the bit (the mean
    of its steps 2..n_steps for AVERAGED_HIGH); they can differ from a
    walk at the point itself in the last digit.  Hits stream in grid
    order (then step, then up before down).  The scan is chunked, so
    memory stays bounded for any grid size; chunks and workers count
    coins: workers > 1 spreads chunks over up to that many processes (no
    more than there are chunks; a single chunk starts no process).
    maximal_atol must lie in (0, 1).  Arguments are checked on the call,
    before the first hit is asked for.
    """
    return _hits(*_search(
        CoinFamily.GENERAL, mode, n_steps, p_threshold, maximal_atol,
        avg_threshold=avg_threshold, grid_step=grid_step, workers=workers,
    ))


def find_max_cases(
    coin_family: CoinFamily,
    n_max: int,
    p_threshold: float,
    alpha_values: Iterable[float] | None = None,
    beta_arg_values: Iterable[float] | None = None,
    maximal_atol: float = MAXIMAL_ATOL,
) -> list[MaxEntanglementHit]:
    """Catalog maximal-entanglement events for one named coin.

    Walks every (alpha, beta_arg) point of the given grids (defaults:
    0.1-step grids, the exact balanced alpha, and the quarter-turn
    phases, which is where the degenerate walks live) for n_max steps
    and records every step whose normalized entanglement is maximal with
    probability above p_threshold.  The values are checked as
    `ShiftOperator` checks them, and hits carry each beta_arg reduced
    mod 2 pi.  Each point is cataloged once: repeated values, and
    beta_arg values equal after that reduction, are one value.  Hits are
    ordered by alpha, then beta_arg, then step, then up before down.
    Use `grid_search` to scan the general coin.
    """
    if coin_family is CoinFamily.GENERAL:
        raise ValueError("find_max_cases catalogs a named coin; use grid_search")
    return list(_hits(*_search(
        coin_family, SearchMode.ISOLATED_MAX, n_max, p_threshold, maximal_atol,
        alpha_values=alpha_values, beta_arg_values=beta_arg_values,
    )))


def _search(
    coin_family: CoinFamily,
    mode: SearchMode,
    n_steps: int,
    p_threshold: float,
    maximal_atol: float,
    *,
    avg_threshold: float | None = None,
    grid_step: float | None = None,
    workers: int | None = None,
    alpha_values: Iterable[float] | None = None,
    beta_arg_values: Iterable[float] | None = None,
):
    """(axes, pieces) of a search: its five axes and `_fan_out`'s pieces.

    The general coin scans the grid of step grid_step, one entry per key
    (`grid_search`); a named coin catalogs its alpha and beta_arg values,
    every point its own key (`find_max_cases`).  Either way each distinct
    real coin walks once (`_fan_out`).  Arguments are checked on the
    call; the dedup and the walks run when the first piece is asked for.
    """
    if coin_family is not CoinFamily.GENERAL and mode is not SearchMode.ISOLATED_MAX:
        raise ValueError("averaged search scans the general coin only")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    if not 0.0 < p_threshold < 1.0:
        raise ValueError(f"p_threshold must lie in (0, 1), got {p_threshold}")
    if not 0.0 < maximal_atol < 1.0:
        # normalized E lies in [0, 1]: 0 or less finds nothing, 1 or more takes product states
        raise ValueError(f"maximal_atol must lie in (0, 1), got {maximal_atol}")
    if n_steps < 2:
        raise ValueError(f"n_steps must be at least 2, got {n_steps}")
    if coin_family is CoinFamily.GENERAL:
        if mode is SearchMode.AVERAGED_HIGH and not 0.0 <= avg_threshold < 1.0:
            # normalized E is capped at 1, so no mean can exceed a threshold of 1 or more
            raise ValueError(f"avg_threshold must lie in [0, 1), got {avg_threshold}")
        # sized before they are built: near step 1e-8 beta_arg alone would take gigabytes
        cells = prod(_axis_size(*_grid(name, grid_step)) for name in ("theta", "eta", "beta_arg"))
        if cells > 10**7:  # _key_walks builds a table of this many index triples
            raise ValueError(
                f"grid step {grid_step} gives {cells:,} (theta, eta, beta_arg) cells, "
                "more than 10^7"
            )
        axes = [grid_axis(name, grid_step) for name in PARAM_RANGES]
        walk_axes, key, _ = _key_walks(axes)
    else:
        coin = family_coin(coin_family)
        if alpha_values is None:
            alpha_values = np.union1d(grid_axis("alpha", 0.1), BALANCED_ALPHA)
        if beta_arg_values is None:
            quarter = float(np.pi / 2)
            extra = [quarter, 2 * quarter, 3 * quarter]
            beta_arg_values = np.union1d(grid_axis("beta_arg", 0.1), extra)
        alpha = np.unique(_checked("alpha", alpha_values))
        beta_arg = np.unique(_checked("beta_arg", beta_arg_values))
        axes = [np.array([x]) for x in (coin.rho, coin.theta, coin.eta)] + [alpha, beta_arg]
        walk_axes, workers = axes, None  # every point is its own key; a catalog runs in-process
        key = partial(np.ravel_multi_index, dims=[axis.size for axis in axes])
    if mode is SearchMode.ISOLATED_MAX:
        reduce, args = _isolated_hits, (p_threshold, maximal_atol)
    else:
        reduce, args = _averaged_hits, (p_threshold, avg_threshold)
    return axes, _fan_out(axes, walk_axes, key, n_steps, reduce, *args, workers=workers or 1)


"""State representation and unitary evolution for a coined quantum walk
of two walkers that move together on the integer line.

The domains of the five coin and shift parameters are one table,
`PARAM_RANGES`, and every entry point checks its values against it.

The joint state is a superposition of terms |s> (x) |i,i> where s is a
spin-1/2 component (the coin) and i is a lattice site shared by both
walkers.  One step applies a 2x2 unitary coin U to the spin factor, then
the shift's 2x2 mix V = [[alpha, beta], [-conj(beta), alpha]], and then
moves the up output one site right and the down output one site left.
Measuring the coin collapses the position factor to a pure state whose
amplitudes carry the walker-walker entanglement.

After n steps the pair can only sit at sites 2k - n, where k counts the
up moves, so amplitudes are stored by k in n + 1 slots.  One generator,
`_padded_walk`, steps a batch of walks into blocks of steps, each row
zero-padded to a width set by the step alone, and hands out finished
blocks.  The metric paths collapse them through one block loop,
`_collapsed_blocks`; `walk_batch`, the public engine, is a view of their
rows, and `iter_steps` and `evolve` run it as a batch of one on complex
U and V, each applied by the one mix rule `_mixed`, which `step` and
`invariant`'s W use too.  Every metric depends only on r = |W00| of W = V U,
so the metric paths walk the real coin [[a, b], [-b, a]] of (a, b) =
(|W00|, |W01|) instead: the metric helpers of `entanglement` and `sweep`
take a stack of those coins (`_real_coins`) alone.  A real step is one
`np.matmul` of the coin stack with the whole padded row; its last bits
follow the BLAS kernel, which may fuse each sum of two products into
one rounding, so they are the same on one machine in any batch, block,
chunk or worker, and may differ between CPUs.  One function,
`collapse_metrics`, turns amplitudes into the outcome probability, the
term count and the entropies, for one walk or a batch alike;
`measure_spin` takes its P and N from it too.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterator, NamedTuple

__all__ = [
    "TERM_THRESHOLD",
    "UNITARITY_ATOL",
    "BALANCED_ALPHA",
    "Spin",
    "CoinOperator",
    "ShiftOperator",
    "WalkState",
    "CollapseResult",
    "CollapseMetrics",
    "phase_factor",
    "coin_matrices",
    "shift_matrices",
    "invariant",
    "hadamard_coin",
    "kempe_coin",
    "z_coin",
    "balanced_shift",
    "initial_state",
    "walk_batch",
    "step",
    "iter_steps",
    "evolve",
    "collapse_metrics",
    "normalized_ratio",
    "measure_spin",
    "orthonormality_residual",
    "verify_shift_unitarity",
]

#: modulus below which a collapsed amplitude does not count as a term
TERM_THRESHOLD = 1e-10

#: entrywise tolerance for unitarity checks
UNITARITY_ATOL = 1e-12

#: alpha = |beta| at the equal-weight point of the shift operator
BALANCED_ALPHA = float(np.sqrt(0.5))

_QUARTER_TURN = float(np.pi / 2)

#: the least positive float64, a subnormal
_TINY = 5e-324

#: (low, high, closed) domain of each coin and shift parameter, in the
#: order of a search's axes; beta_arg is a phase and excludes 2 pi
PARAM_RANGES = {
    "rho": (0.0, 1.0, True),
    "theta": (0.0, float(np.pi), True),
    "eta": (0.0, float(np.pi), True),
    "alpha": (0.0, 1.0, True),
    "beta_arg": (0.0, float(2.0 * np.pi), False),
}

# exp(i k pi/2) indexed by k mod 4
_UNIT_PHASES = np.array([1 + 0j, 1j, -1 + 0j, -1j])


def phase_factor(angle):
    """Return exp(i*angle), exact at multiples of pi/2.

    Accepts a float or an array of floats and returns a complex or a
    complex array of the same shape.  Exactness at quarter turns keeps
    walks that degenerate into a single product-state chain exactly
    degenerate: the dead spin branch receives amplitude 0.0 rather than
    O(1e-16) rounding leakage, which would otherwise masquerade as a
    spurious collapsed state.
    """
    angle = np.asarray(angle, dtype=np.float64)
    turns = np.rint(angle / _QUARTER_TURN)
    exact = turns * _QUARTER_TURN == angle
    general = np.empty(angle.shape, dtype=np.complex128)
    general.real = np.cos(angle)
    general.imag = np.sin(angle)
    quarter = np.where(exact, turns, 0.0).astype(np.int64) % 4
    out = np.where(exact, _UNIT_PHASES[quarter], general)
    return complex(out) if out.ndim == 0 else out


def coin_matrices(rho, theta, eta) -> np.ndarray:
    """Coin matrices for scalar or array parameters, shape (..., 2, 2).

    See `CoinOperator` for the parametrisation; the phases go through
    `phase_factor`, so quarter turns are exact for grids too.
    """
    stay = np.sqrt(rho)
    flip = np.sqrt(1.0 - rho)
    shape = np.broadcast(rho, theta, eta).shape
    m = np.empty(shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = stay
    m[..., 0, 1] = flip * phase_factor(np.subtract(theta, eta))
    m[..., 1, 0] = -flip * phase_factor(-np.add(theta, eta))
    m[..., 1, 1] = stay * phase_factor(np.multiply(-2.0, eta))
    return m


def _beta(alpha, beta_arg):
    """beta = |beta| e^{i beta_arg} of float64 alpha, as `shift_matrices`
    describes it."""
    mod = np.where(
        alpha == BALANCED_ALPHA, BALANCED_ALPHA, np.sqrt((1.0 - alpha) * (1.0 + alpha))
    )
    return mod * phase_factor(beta_arg)


def shift_matrices(alpha, beta_arg) -> np.ndarray:
    """Shift mixing matrices [[alpha, beta], [-conj(beta), alpha]], shape (..., 2, 2).

    beta = |beta| e^{i beta_arg} with |beta| = sqrt(1 - alpha^2), except
    at the balanced point alpha = BALANCED_ALPHA, where |beta| is that
    same float: the square root lands one ulp below it, and the equal
    moduli are what keep the degenerate walks there exactly degenerate.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = _beta(alpha, beta_arg)
    m = np.empty(np.broadcast(alpha, beta).shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = alpha
    m[..., 0, 1] = beta
    m[..., 1, 0] = -np.conj(beta)
    m[..., 1, 1] = alpha
    return m


def _mixed(m: np.ndarray, amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The rows (m00 up + m01 down, m10 up + m11 down) of (..., 2, k)
    amplitudes (up, down) under a (..., 2, 2) mix m, into out if given:
    the one rule that applies a complex 2x2 mix.  Each product is rounded
    on its own, so the two products of a dead slot of the chains and the
    bounce are exact negatives, whose sum is 0.  A fused product
    (`np.matmul`: zgemm, with FMA) leaks rounding into those slots, and
    multiplying U and V into one mix first keeps them at 0 but drifts a
    chain's modulus by a rounding per step (1.1e-13 after 500 steps).
    """
    return np.add(m[..., :1] * amps[..., None, 0, :], m[..., 1:] * amps[..., None, 1, :], out=out)


def invariant(rho, theta, eta, alpha, beta_arg):
    """(a, b) = (|W00|, |W01|) of W = V U, for scalar or array parameters.

    A global phase and a rephasing of |down> take W to the real coin
    [[a, b], [-b, a]], which walks with the same moduli, so every metric
    depends on r = a alone.  W's first row is V's first row mixing U's
    rows through `_mixed`, as the engine applies them, so b is exactly 0
    at the product-state chains and a at the kempe bounce; (a, b) is
    divided by its norm, so a^2 + b^2 = 1 to rounding.
    """
    u, v = coin_matrices(rho, theta, eta), shift_matrices(alpha, beta_arg)
    w = np.abs(_mixed(v[..., :1, :], u))
    a, b = w[..., 0, 0], w[..., 0, 1]
    norm = np.hypot(a, b)
    return a / norm, b / norm


def _real_coins(rho, theta, eta, alpha, beta_arg) -> np.ndarray:
    """(B, 2, 2) float64 stack of the real coins [[a, b], [-b, a]] of
    `invariant`, which `walk_batch(u, None, n)` walks."""
    a, b = invariant(rho, theta, eta, alpha, beta_arg)
    return np.stack([a, b, -b, a], axis=-1).reshape(-1, 2, 2)


def _domain(name: str) -> tuple[float, float, bool]:
    """`PARAM_RANGES` entry of a parameter, ValueError for an unknown name."""
    try:
        return PARAM_RANGES[name]
    except KeyError:
        raise ValueError(f"unknown parameter {name!r}") from None


def _checked(name: str, values) -> np.ndarray:
    """Values of parameter `name` as float64, checked against its domain.

    NaN, +-inf and values outside a closed range raise ValueError naming
    the parameter.  beta_arg is reduced mod 2 pi into [0, 2 pi); values
    already there come back unchanged to the bit.
    """
    lo, hi, closed = _domain(name)
    values = np.asarray(values, dtype=np.float64)
    inside = (lo <= values) & ((values <= hi) if closed else (values < hi))
    if inside.all():  # NaN compares false, so it is never inside
        return values
    bad = values[~inside]
    if not np.isfinite(bad).all():
        raise ValueError(f"{name} must be finite, got {bad[~np.isfinite(bad)][0]}")
    if closed:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {bad[0]}")
    wrapped = np.mod(values, hi)  # lo is 0; a residue that rounds up to 2 pi is the phase 0
    return np.where(inside, values, np.where(wrapped < hi, wrapped, lo))


def _check_fields(operator):
    """Replace each parameter field of a frozen operator by its checked float."""
    for name, value in vars(operator).items():
        object.__setattr__(operator, name, float(_checked(name, value)))


class Spin(Enum):
    """Z-axis spin eigenstates of the coin."""

    UP = "up"
    DOWN = "down"

    def __str__(self) -> str:
        return self.value

    @property
    def row(self) -> int:
        """Index of this spin in the engine's (2, B, n + 1) amplitude arrays."""
        return 0 if self is Spin.UP else 1


@dataclass(frozen=True)
class CoinOperator:
    """U(2) coin acting on the spin factor each step.

    The realized matrix is

        [[ sqrt(rho),                sqrt(1-rho) e^{i(theta-eta)} ],
         [ -sqrt(1-rho) e^{-i(theta+eta)}, sqrt(rho) e^{-2i eta}  ]]

    with rho in [0, 1] and theta and eta in [0, pi] (`PARAM_RANGES`);
    a value outside, NaN or infinite raises ValueError.  A global phase
    would change no probability or entropy, so there is none.
    """

    rho: float
    theta: float
    eta: float

    def __post_init__(self):
        _check_fields(self)

    def matrix(self) -> np.ndarray:
        """Realize the coin as a 2x2 complex128 array."""
        return coin_matrices(self.rho, self.theta, self.eta)

    def unitarity_residual(self) -> float:
        """Max entrywise deviation of U U+ from the identity."""
        u = self.matrix()
        return float(np.max(np.abs(u @ u.conj().T - np.eye(2))))


def hadamard_coin() -> CoinOperator:
    """Coin realizing (1/sqrt 2) [[1, 1], [1, -1]] exactly."""
    return CoinOperator(rho=0.5, theta=np.pi / 2, eta=np.pi / 2)


def kempe_coin() -> CoinOperator:
    """Coin realizing (1/sqrt 2) [[1, i], [i, 1]] exactly."""
    return CoinOperator(rho=0.5, theta=np.pi / 2, eta=0.0)


def z_coin() -> CoinOperator:
    """Coin realizing [[1, 0], [0, -1]] exactly.

    At rho = 1 the off-diagonal entries vanish, so theta is irrelevant
    and is pinned to 0.
    """
    return CoinOperator(rho=1.0, theta=0.0, eta=np.pi / 2)


@dataclass(frozen=True)
class ShiftOperator:
    """Spin-conditioned translation of the walker pair.

    The mix V = [[alpha, beta], [-conj(beta), alpha]] feeds the up output,
    which moves one site right, and the down output, which moves one
    site left.  alpha is real in [0, 1] by convention (its phase can
    always be absorbed into a redefinition of the spin eigenstates) and
    beta is derived as sqrt(1 - alpha^2) e^{i beta_arg}, so (alpha, beta)
    and (-conj(beta), conj(alpha)) form an orthonormal pair by
    construction.  At alpha = BALANCED_ALPHA, |beta| is exactly alpha
    (see `shift_matrices`).  The beta_arg field holds the phase reduced
    mod 2 pi into [0, 2 pi), the one the walk uses; an alpha outside
    [0, 1], or a NaN or infinite parameter, raises ValueError.
    """

    alpha: float
    beta_arg: float = 0.0

    def __post_init__(self):
        _check_fields(self)

    def matrix(self) -> np.ndarray:
        """The mix V as a 2x2 complex128 array."""
        return shift_matrices(self.alpha, self.beta_arg)

    @property
    def beta(self) -> complex:
        """Complex beta coefficient, the entry V[0, 1] of `matrix`."""
        return complex(_beta(self.alpha, self.beta_arg))


def balanced_shift(beta_arg: float = 0.0) -> ShiftOperator:
    """Shift at the balanced point alpha = |beta| = 1/sqrt 2.

    Both moduli are the same float, so walks that degenerate into a
    product-state chain at this point stay exactly degenerate.
    """
    return ShiftOperator(alpha=BALANCED_ALPHA, beta_arg=beta_arg)


def orthonormality_residual(alpha: complex, beta: complex) -> float:
    """Residual of the orthonormality conditions for a raw (alpha, beta) pair.

    Builds V1 = (alpha, beta) and V2 = (-conj(beta), conj(alpha)) and
    returns the largest deviation among |V1 . conj(V2)|, | |V1|^2 - 1 |
    and | |V2|^2 - 1 |.  Zero residual is exactly what makes the shift
    operator unitary.
    """
    v1 = np.array([alpha, beta], dtype=np.complex128)
    v2 = np.array([-np.conj(beta), np.conj(alpha)], dtype=np.complex128)
    cross = abs(np.vdot(v2, v1))
    n1 = abs(np.vdot(v1, v1).real - 1.0)
    n2 = abs(np.vdot(v2, v2).real - 1.0)
    return float(max(cross, n1, n2))


def verify_shift_unitarity(shift: ShiftOperator) -> tuple[bool, float]:
    """Check the unitarity of a shift operator.

    Returns (ok, residual) where residual is the worst orthonormality
    deviation of its coefficient vectors and ok is residual < UNITARITY_ATOL.
    """
    residual = orthonormality_residual(complex(shift.alpha), shift.beta)
    return residual < UNITARITY_ATOL, residual


def _site_index(n: int, site: int) -> int | None:
    """Slot k of `site` after n steps (site = 2k - n), None if unreachable."""
    k, odd = divmod(site + n, 2)
    return k if not odd and 0 <= k <= n else None


@dataclass(frozen=True)
class WalkState:
    """Joint coin (x) position state after some number of steps.

    Entry k of each amplitude array belongs to |s> (x) |i,i> with
    i = 2k - step, k being the number of up moves; `sites` and
    `amplitude` translate.  Instances are immutable; the arrays are
    marked read-only so states can be shared freely between workers.
    """

    step: int
    amps_up: np.ndarray
    amps_down: np.ndarray

    def __post_init__(self):
        self.amps_up.flags.writeable = False
        self.amps_down.flags.writeable = False

    def sites(self) -> np.ndarray:
        """Position index of each amplitude slot."""
        return 2 * np.arange(self.step + 1) - self.step

    def norm(self) -> float:
        """Euclidean norm of the joint state (1 for a valid state)."""
        total = np.sum(np.abs(self.amps_up) ** 2) + np.sum(np.abs(self.amps_down) ** 2)
        return float(np.sqrt(total))

    def amplitude(self, spin: Spin, site: int) -> complex:
        """Amplitude of |spin> (x) |site,site>, 0 at unreachable sites."""
        k = _site_index(self.step, site)
        if k is None:
            return 0j
        amps = self.amps_up if spin is Spin.UP else self.amps_down
        return complex(amps[k])


def initial_state() -> WalkState:
    """The walk's starting state |up> (x) |0,0>, the paper's modelling choice.

    Other product start states are not reduced to it: the real coin at
    r = 1/sqrt 2 started from (|up> + i|down>)/sqrt 2 keeps P_up = 1/2 at
    every step, which no r reaches from |up>.
    """
    return WalkState(0, np.ones(1, np.complex128), np.zeros(1, np.complex128))


def _written(amps: np.ndarray) -> np.ndarray:
    """The slots a step writes in (..., 2, B, width) amplitudes, as one
    (..., 2, B, width - 1) view: up slots 1.. (an up output's last move
    was up, so k >= 1), then down slots 0.. (a down output's was not)."""
    *lead, _, b, width = amps.shape
    *outer, row, walk, slot = amps.strides
    return as_strided(
        amps[..., 0, :, 1:], (*lead, 2, b, width - 1), (*outer, row - slot, walk, slot)
    )


def _stepper(u: np.ndarray, v: np.ndarray | None):
    """The step of `_padded_walk` for the (B, 2, 2) stacks u and v: a
    callable (src, out=...) that writes the next step from src into out,
    walk-major (B, 2, k) views.  The real walk, a float64 u and no v,
    steps by one `np.matmul`: at r = 1 and r = 0 one product of every sum
    is an exact 0, so its zeros stay exact however the kernel rounds.
    Any other walk mixes u and then v through `_mixed`."""
    if v is not None:
        return lambda src, out: _mixed(v, _mixed(u, src), out=out)
    return partial(np.matmul if u.dtype == np.float64 else _mixed, u)


def _rows(buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk-major (rows, B, 2, w - 1) views of a (rows, 2, B, w) buffer of
    `_padded_walk`: the slots 0..w - 2 a step reads, and the `_written`
    slots it writes."""
    return buffer[..., :-1].transpose(0, 2, 1, 3), _written(buffer).transpose(0, 2, 1, 3)


#: every step's rows are zero-padded to the next multiple of this width;
#: the rounding of a collapse's P and E sums depends on the row width
#: alone, so a step collapses to the same bits in any block or batch
#: (`_collapsed_blocks` cuts the padding only where the bits stay)
_WIDTH = 32

#: amplitudes per block of `_padded_walk` (steps x 2 x B x padded width),
#: or one step for a batch too wide for two; a block this small is still
#: in cache when it collapses (2^16, a whole width class of an 800-step
#: walk per block, made a 25-walk series slower)
_BLOCK = 1 << 14


def _padded_walk(u: np.ndarray, v: np.ndarray | None, n_steps: int):
    """Step the walks of `walk_batch(u, v, n_steps)`, the one stepping
    generator, and yield (n, block) once per finished block: the
    (steps, 2, B, w) amplitudes of consecutive steps ending at step n, at
    most `_BLOCK` amplitudes or one step, each row zero-padded to w = the
    next multiple of `_WIDTH` above its step.

    A width class has one zeroed buffer of two halves of a block each,
    which the blocks fill in turn.  Every step is one call of
    `_stepper`'s step from the row before it into the `_written` view of
    the next row, both walk-major views of the whole padded width, made
    once per buffer (`_rows`): each step writes every slot but up slot 0
    and the last down slot, which stay zero, and the slots past its own
    from zeros, so they are zero too.  The first step of a class reads
    the row before it from a zero-padded copy, and the first after a mask
    from a copy of the kept walks.  No step reads the row it writes, and
    a block is overwritten by the next but one; collapse it before asking
    for that.  A (B,) boolean mask sent for the next block keeps those
    walks alone, in their order, cut from the last row, u and v.  Every
    walk steps on its own rows with the same step at the same width, so
    the kept walks' values do not change by a bit, nor do a walk's in any
    batch or block.
    """
    b, top, advance = u.shape[0], n_steps + _WIDTH, _stepper(u, v)
    dtype = u.dtype if v is None else np.result_type(u, v)
    last = np.zeros((2, b, 1), dtype)
    last[0] = 1.0  # |up> (x) |0,0>, step 0
    for w in range(_WIDTH, top + 1, _WIDTH):
        # the steps n of this width: w - _WIDTH < n + 1 <= w
        first, stop = max(1, w - _WIDTH), min(w, n_steps + 1)
        size = max(1, min(stop - first, _BLOCK // (2 * b * w)))
        buffer = np.zeros((2 * size, 2, b, w), dtype)
        ins, outs = _rows(buffer)
        src = np.zeros((b, 2, w - 1), dtype)
        src[..., : last.shape[-1]] = last.transpose(1, 0, 2)
        del last  # the buffer it views can go before this class is stepped
        for i, start in enumerate(range(first, stop, size)):
            rows = range(i % 2 * size, i % 2 * size + min(size, stop - start))
            for row in rows:
                advance(src, out=outs[row])
                src = ins[row]
            last = buffer[rows[-1]]
            keep = yield start + len(rows) - 1, buffer[rows.start : rows.stop]
            if keep is not None:
                u, v = u[keep], None if v is None else v[keep]
                b, advance = u.shape[0], _stepper(u, v)
                buffer, last = buffer[:, :, :b], last[:, keep]
                (ins, outs), src = _rows(buffer), last[..., : w - 1].transpose(1, 0, 2)


def walk_batch(
    u: np.ndarray, v: np.ndarray | None, n_steps: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Evolve a batch of walks from |up> (x) |0,0>, the one evolution engine.

    u and v are (B, 2, 2) stacks of coin and shift matrices, walked in
    their common dtype (complex128 for `coin_matrices`).  With v None, u
    alone is the mix, and a float64 u such as `_real_coins` walks in
    float64.  Yields (n, amps) after each of steps 1..n_steps, where amps
    is a (2, B, n + 1) view: row `Spin.row`, walk, then k = number of up
    moves.  It views a row of a block of `_padded_walk`, which a later
    block overwrites; copy what you keep.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    for n, block in _padded_walk(u, v, n_steps):
        for a, row in enumerate(block, start=n + 1 - len(block)):
            yield a, row[:, :, : a + 1]


def step(state: WalkState, coin: CoinOperator, shift: ShiftOperator) -> WalkState:
    """Advance the walk by one coin + shift application."""
    src = np.stack([state.amps_up, state.amps_down])
    dst = np.zeros((2, 1, state.step + 2), np.complex128)
    _mixed(shift.matrix(), _mixed(coin.matrix(), src), out=_written(dst)[:, 0])
    return WalkState(step=state.step + 1, amps_up=dst[0, 0], amps_down=dst[1, 0])


def iter_steps(
    coin: CoinOperator, shift: ShiftOperator, n_steps: int
) -> Iterator[WalkState]:
    """Yield the walk state after each of steps 1..n_steps."""
    for n, amps in walk_batch(coin.matrix()[None], shift.matrix()[None], n_steps):
        yield WalkState(step=n, amps_up=amps[0, 0].copy(), amps_down=amps[1, 0].copy())


def evolve(coin: CoinOperator, shift: ShiftOperator, n_steps: int) -> WalkState:
    """Return the walk state after n_steps steps from the initial state."""
    state = initial_state()
    for state in iter_steps(coin, shift, n_steps):
        pass
    return state


class CollapseMetrics(NamedTuple):
    """Per-outcome results of collapsing amplitudes, one entry per row.

    probability: the outcome probability P; term_count: N, amplitudes
    whose normalized modulus exceeds the term threshold; entropy: E in
    bits; normalized: E / log2 N (see `normalized_ratio`).
    """

    probability: np.ndarray
    term_count: np.ndarray
    entropy: np.ndarray
    normalized: np.ndarray


def normalized_ratio(e_bits, n_terms):
    """E / log2 N, or 0 when fewer than two terms survive the threshold.

    A single position term carries no walker-walker entanglement by
    definition.  Rounding can overshoot the exact maximum by a few ulp,
    so the ratio is capped at its mathematical bound 1.  E is an entropy,
    E >= 0, so one cap does both: 1 where N >= 2 and 0 elsewhere.
    """
    return np.minimum(e_bits / np.log2(np.maximum(n_terms, 2)), np.greater_equal(n_terms, 2))


def collapse_metrics(amps: np.ndarray) -> CollapseMetrics:
    """P, N, E and normalized E of collapsing onto each row of `amps`.

    The last axis holds position amplitudes, real or complex and
    unnormalized: the squared norm of a row is the outcome probability.
    The metrics come from the weights w = |c|^2 / P of the normalized row:
    N counts w above TERM_THRESHOLD^2 and E = -sum w log2 w in bits
    (0 log 0 = 0).  A row of probability zero gives P = N = E = 0.
    """
    weights = np.square(amps.real, dtype=np.float64)
    if np.iscomplexobj(amps):
        weights += np.square(amps.imag)
    probability = weights.sum(axis=-1)
    # _TINY is the least positive float: every P > 0 divides as itself, and a
    # weight of 0 gets a finite log that it multiplies back to 0
    weights /= np.maximum(probability, _TINY)[..., None]
    n_terms = (weights > TERM_THRESHOLD * TERM_THRESHOLD).sum(axis=-1)
    terms = np.maximum(weights, _TINY)
    np.log2(terms, out=terms)
    terms *= weights
    e_bits = 0.0 - terms.sum(axis=-1)  # 0 - (-0) is +0, so no E is -0
    return CollapseMetrics(probability, n_terms, e_bits, normalized_ratio(e_bits, n_terms))


#: numpy sums a row of at most this many slots in 8 interleaved partial
#: sums, so zero padding to any multiple of 8 up to it sums to the same bits
_PARTIALS = 128


def _collapsed_blocks(coins: np.ndarray, n_steps: int):
    """The one block loop of the metric paths: walk the real coin stack
    `coins` through `_padded_walk` and yield (n, metrics) per finished
    block, its `collapse_metrics`, each field a (steps, 2, B) array
    whose last row is step n.

    While a block is at most `_PARTIALS` slots wide, only the least
    multiple of 8 slots that holds step n collapses: the slots cut are
    zero in every row, so P, N and E keep the bits of the padded width.
    A (B,) boolean mask sent after a block goes on to `_padded_walk`.
    """
    walk, keep, n = _padded_walk(coins, None, n_steps), None, 0
    while n < n_steps:
        n, block = walk.send(keep)
        if block.shape[-1] <= _PARTIALS:
            block = block[..., : -(-(n + 1) // 8) * 8]
        metrics = collapse_metrics(block)
        del block  # a width class's buffer can go once the walk carries its last row on
        keep = yield n, metrics


@dataclass(frozen=True)
class CollapseResult:
    """Outcome of measuring the coin after some number of steps.

    amps holds the normalized position amplitudes of the post-measurement
    state by k, as in `WalkState` (empty when the outcome has zero
    probability, which is a valid degenerate result rather than an error:
    downstream averages assign it zero entanglement).  term_count is N
    of `collapse_metrics`, the weights |c|^2 / P above TERM_THRESHOLD^2.
    """

    outcome: Spin
    probability: float
    amps: np.ndarray
    step: int
    term_count: int

    def __post_init__(self):
        self.amps.flags.writeable = False

    def sites(self) -> np.ndarray:
        """Position index of each entry of amps."""
        return 2 * np.arange(self.amps.size) - self.step

    def amplitude(self, site: int) -> complex:
        """Normalized amplitude of |site,site>, 0 at sites without one."""
        k = _site_index(self.step, site)
        if k is None or k >= self.amps.size:
            return 0j
        return complex(self.amps[k])


def measure_spin(state: WalkState, outcome: Spin) -> CollapseResult:
    """Project the walk state onto a spin outcome and normalize.

    probability and term_count are P and N of `collapse_metrics`; the
    returned amplitudes, divided by sqrt(P), are those of the collapsed
    position state.
    """
    amps = state.amps_up if outcome is Spin.UP else state.amps_down
    probability, n_terms = collapse_metrics(amps)[:2]
    collapsed = amps / np.sqrt(probability) if probability > 0.0 else np.zeros(0, np.complex128)
    return CollapseResult(
        outcome=outcome,
        probability=float(probability),
        amps=collapsed,
        step=state.step,
        term_count=int(n_terms),
    )

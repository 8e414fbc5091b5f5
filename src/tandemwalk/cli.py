"""Command-line front end: run walks, sweeps and searches, emit CSV.

Output is plain CSV preceded by '#'-prefixed metadata lines (tool
version, parameter echo, tolerances), so every file documents how it was
produced.  Rows are emitted in deterministic grid order and never depend
on the worker count.  Every field is the `str` of its value, and `_emit`
writes rows a block of text at a time: a row per block for sweeps, one
block for a walk, whose rows join the texts of its series' columns, made
a column at a time, and a fan-out piece per block for searches, whose
axis values and coin hits are each formatted once per search.  A search
row joins three texts: the `rho,theta,eta,alpha,` prefix, made once for
the run of rows of one beta_arg row of the grid, its beta_arg and its
coin hit.  A piece's work is proportional to its own rows, and its
buffers stay small enough to be reused from piece to piece.
"""

import argparse
import functools
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .analytic import phi1, psi_down_2, psi_up_2
from .core import (
    BALANCED_ALPHA,
    PARAM_RANGES,
    TERM_THRESHOLD,
    UNITARITY_ATOL,
    CoinOperator,
    ShiftOperator,
    Spin,
    _real_coins,
    balanced_shift,
    collapse_metrics,
    initial_state,
    iter_steps,
    measure_spin,
    orthonormality_residual,
    step,
    verify_shift_unitarity,
    walk_batch,
)
from .entanglement import _metric_series
from .sweep import (
    _SPINS,
    MAXIMAL_ATOL,
    CoinFamily,
    SearchMode,
    SweepMode,
    SweepSpec,
    _search,
    family_coin,
    sweep_1d,
)

_QUARTER = float(np.pi / 2)

#: accepted spellings for irrational parameter values; plain decimals
#: truncate and miss the exactly degenerate points
_ALPHA_ALIASES = {"r2inv": BALANCED_ALPHA}
_ANGLE_ALIASES = {
    "0": 0.0,
    "pi/2": _QUARTER,
    "pi": 2 * _QUARTER,
    "3pi/2": 3 * _QUARTER,
}

_FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

#: grid step of the preset scans
_FINE = 0.005

#: fixed shift parameters at the exact balanced point
_BALANCED = {"alpha": BALANCED_ALPHA}

#: fig2's alpha just off the balanced point, as a user would type it
_NEAR_BALANCED_ALPHA = 0.7071067812


def _parse_alpha(text: str) -> float:
    return _ALPHA_ALIASES[text] if text in _ALPHA_ALIASES else float(text)


def _parse_angle(text: str) -> float:
    return _ANGLE_ALIASES[text] if text in _ANGLE_ALIASES else float(text)


def _parse_outcomes(text: str) -> tuple[Spin, ...]:
    if text == "both":
        return (Spin.DOWN, Spin.UP)
    return (Spin(text),)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _resolve_workers(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("QRW_WORKERS")
    if env:
        try:
            return _positive_int(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"QRW_WORKERS {exc}") from None
    return os.cpu_count() or 1


def _write_csv(path, meta: dict, header: list[str], blocks) -> int:
    """Write metadata, header and row blocks to path (or standard output)."""
    if path in (None, "-"):
        return _emit(sys.stdout, meta, header, blocks)
    with open(path, "w") as stream:
        return _emit(stream, meta, header, blocks)


def _emit(stream, meta: dict, header: list[str], blocks) -> int:
    """Write metadata, header and each block, a (text, row count) pair, in
    one write; return the row count."""
    stream.write(f"# tandemwalk {__version__}\n")
    for key, value in meta.items():
        stream.write(f"# {key}={value}\n")
    stream.write(",".join(map(str, header)) + "\n")
    count = 0
    for text, rows in blocks:
        stream.write(text)
        count += rows
    return count


def _lines(rows):
    """One block per row of values, its fields joined as their `str`;
    str(float) is the shortest repr that reads back exactly."""
    return ((",".join(map(str, row)) + "\n", 1) for row in rows)


def _merge_config(argv: list[str]) -> list[str]:
    """Prepend options from a --config file so explicit flags win.

    The file holds one key=value pair per line, '#' starts a comment,
    and keys mirror the long option names (beta_arg or beta-arg both
    work).  Unknown keys are rejected by the normal argument parser.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    injected: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {line!r} is not key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            injected.extend([f"--{key.replace('_', '-')}", value])
    return injected + argv


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value file; flags override it")
    parser.add_argument("--out", help="output path (default: standard output)")


def _add_operator_args(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--coin",
        choices=[f.value for f in CoinFamily],
        default="hadamard",
        help="coin family",
    )
    parser.add_argument("--rho", type=float, help="general coin rho in [0,1]")
    parser.add_argument("--theta", type=float, help="general coin theta in [0,pi]")
    parser.add_argument("--eta", type=float, help="general coin eta in [0,pi]")
    parser.add_argument(
        "--alpha",
        type=_parse_alpha,
        default=BALANCED_ALPHA,
        help="shift alpha in [0,1]; the alias r2inv selects the exact balanced point",
    )
    parser.add_argument(
        "--beta-arg",
        type=_parse_angle,
        default=0.0,
        help="phase of beta, reduced mod 2pi; aliases pi/2, pi, 3pi/2 stay exact",
    )


def _coin_flags(args) -> dict:
    """The --rho, --theta and --eta that are set; a named coin reads none,
    so with one of those any set flag is an error naming it."""
    flags = {name: x for name in ("rho", "theta", "eta") if (x := getattr(args, name)) is not None}
    if flags and args.coin != "general":
        raise ValueError(f"--{next(iter(flags))} is not used with the {args.coin} coin")
    return flags


def _build_operators(args) -> tuple[CoinOperator, ShiftOperator]:
    coin = family_coin(CoinFamily(args.coin), **_coin_flags(args))
    return coin, ShiftOperator(alpha=args.alpha, beta_arg=args.beta_arg)


def _operator_meta(coin: str, params: dict) -> dict:
    """The coin and, of params, the parameters that shaped the rows: the
    values the operators or the sweep hold, so a beta_arg echoes reduced
    mod 2 pi.  A sweep passes no swept parameter, whose values the grid
    gives, and only the general coin reads rho, theta and eta."""
    names = PARAM_RANGES if coin == "general" else ("alpha", "beta_arg")
    return {"coin": coin, **{name: params[name] for name in names if name in params}}


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    coin, shift = _build_operators(args)
    outcomes = _parse_outcomes(args.outcome)  # down before up, the row order
    series = _metric_series(_real_coins(**vars(coin), **vars(shift)), args.steps)
    rows = [""] * (args.steps * len(outcomes))  # by step, then outcome
    for i, outcome in enumerate(outcomes):
        # each field as `_lines` writes it: the repr of a float is its str
        p, k, e, x = (column[:, outcome.row, 0].tolist() for column in series)
        rows[i :: len(outcomes)] = map(",".join, zip(
            map(str, range(1, args.steps + 1)), [outcome.value] * args.steps,
            map(repr, p), map(str, k), map(repr, e), map(repr, x),
        ))
    meta = {"command": "evolve", **_operator_meta(args.coin, {**vars(coin), **vars(shift)})}
    meta.update(steps=args.steps, outcome=args.outcome, term_threshold=TERM_THRESHOLD)
    header = ["step", "outcome", "P", "N", "E_bits", "normalized_E"]
    _write_csv(args.out, meta, header, [("\n".join(rows) + "\n", len(rows))])
    return 0


# ---------------------------------------------------------------------------
# sweep


def _figure_rows(tag: str, n_steps_override: int | None):
    """Description, header and rows for one named preset scan."""
    n = n_steps_override
    if n is None:
        n = 800 if tag == "fig2" else 200
    hadamard, real = CoinFamily.HADAMARD, {"beta_arg": 0.0}
    alphas, phases = ((name, *PARAM_RANGES[name][:2], _FINE) for name in ("alpha", "beta_arg"))
    figures = {
        "fig1": (
            f"averaged entanglement over {n} steps vs alpha, hadamard coin, real beta",
            lambda: [SweepSpec(hadamard, *alphas, n, fixed=real)],
        ),
        "fig2": (
            f"per-step entanglement for {n} steps, hadamard coin, three alpha values",
            lambda: [
                SweepSpec(hadamard, "alpha", alpha, alpha, 1.0, n, fixed=real,
                          outcomes=(Spin.DOWN,), mode=SweepMode.PER_STEP)
                for alpha in (_NEAR_BALANCED_ALPHA, 0.71, 0.37)
            ],
        ),
        "fig3": (
            f"averaged entanglement over {n} steps vs beta phase, hadamard coin, alpha=0.37",
            lambda: [SweepSpec(hadamard, *phases, n, fixed={"alpha": 0.37})],
        ),
        "fig4": (
            f"averaged entanglement over {n} steps vs beta phase, hadamard coin, balanced alpha",
            lambda: [SweepSpec(hadamard, *phases, n, fixed=_BALANCED)],
        ),
        "fig5": (
            f"averaged entanglement over {n} steps vs beta phase, kempe coin, two alpha values",
            lambda: [
                SweepSpec(CoinFamily.KEMPE, *phases, n, fixed=fixed)
                for fixed in (_BALANCED, {"alpha": 0.37})
            ],
        ),
        "fig6": (
            f"averaged entanglement over {n} steps vs alpha, z coin, real beta",
            lambda: [SweepSpec(CoinFamily.Z, *alphas, n, fixed=real)],
        ),
    }
    if tag not in figures:
        raise ValueError(f"unknown figure tag {tag!r}")
    desc, specs = figures[tag]
    rows = []
    for spec in specs():
        header, part = sweep_1d(spec)
        if tag == "fig5":  # two alpha lines in one table
            alpha = spec.fixed["alpha"]
            header = [header[0], "alpha", *header[1:]]
            part = [(row[0], alpha, *row[1:]) for row in part]
        rows.extend(part)
    return desc, header, rows


def cmd_sweep(args) -> int:
    explicit = args.sweep is not None
    if args.figure and explicit:
        raise ValueError("--figure conflicts with an explicit --sweep")
    if not args.figure and not explicit:
        raise ValueError("need either --figure or --sweep")
    coin_flags = _coin_flags(args)
    if args.figure:
        desc, header, rows = _figure_rows(args.figure, args.steps)
        meta = {"command": "sweep", "figure": args.figure, "description": desc}
    else:
        fixed = {"alpha": args.alpha, "beta_arg": args.beta_arg, **coin_flags}
        fixed.pop(args.sweep, None)
        spec = SweepSpec(
            CoinFamily(args.coin),
            args.sweep,
            args.start,
            args.stop,
            args.step,
            200 if args.steps is None else args.steps,
            fixed=fixed,
            outcomes=_parse_outcomes(args.outcome),
            mode=SweepMode(args.mode),
        )
        header, rows = sweep_1d(spec)
        meta = {"command": "sweep", **_operator_meta(args.coin, spec.fixed)}
        meta.update(
            sweep=args.sweep,
            start=args.start,
            stop=args.stop,
            grid_step=args.step,
            steps=spec.n_steps,
            outcome=args.outcome,
            mode=args.mode,
            term_threshold=TERM_THRESHOLD,
        )
    _write_csv(args.out, meta, header, _lines(rows))
    return 0


# ---------------------------------------------------------------------------
# search


def _search_blocks(axes, pieces):
    """One block per search piece.  Each axis value, and on the first
    piece each coin hit (every piece carries the whole coin-hit columns),
    is formatted once per search as the `str` of the value a
    `MaxEntanglementHit` holds, so a piece only indexes texts by its own
    rows.  Consecutive rows of one beta_arg row of the grid share one
    `rho,theta,eta,alpha,` prefix, made once per such group, and one join
    of prefix, beta_arg and coin-hit texts makes the piece's rows."""
    *heads, betas = (
        np.array([str(x) + "," for x in axis.tolist()], dtype=object) for axis in axes
    )
    shape = [label.size for label in heads]
    tails = None
    for points, hits, columns in pieces:
        if tails is None:
            step, rows, *metrics = (column.tolist() for column in columns)
            spins = [_SPINS[r] for r in rows]
            tails = np.array(
                [",".join(map(str, hit)) + "\n" for hit in zip(step, spins, *metrics)],
                dtype=object,
            )
        grid_rows, beta = np.divmod(points, betas.size)
        starts = np.flatnonzero(np.diff(grid_rows, prepend=-1))
        subs = np.unravel_index(grid_rows[starts], shape)
        rho, theta, eta, alpha = (label[sub] for label, sub in zip(heads, subs))
        prefixes = np.repeat(rho + theta + eta + alpha, np.diff(starts, append=points.size))
        flat = [""] * (3 * hits.size)
        flat[0::3] = prefixes.tolist()
        flat[1::3] = betas[beta].tolist()
        flat[2::3] = tails[hits].tolist()
        yield "".join(flat), hits.size


def cmd_search(args) -> int:
    mode = SearchMode(args.mode)
    family = CoinFamily(args.coin)
    workers = _resolve_workers(args.workers)
    header = [*PARAM_RANGES, "step", "outcome", "normalized_E", "P", "N"]
    meta = {"command": "search", "mode": args.mode, "coin": args.coin}
    if family is CoinFamily.GENERAL:  # the named-coin catalogs use their own grid
        meta["grid"] = args.grid
    meta.update(steps=args.steps, p_min=args.p_min)
    if mode is SearchMode.ISOLATED_MAX:  # averaged hits never test maximality
        meta["maximal_atol"] = args.maximal_atol
    meta["term_threshold"] = TERM_THRESHOLD
    if mode is SearchMode.AVERAGED_HIGH:
        meta["avg_min"] = args.avg_min

    axes, pieces = _search(  # checks the arguments before --out is opened
        family, mode, args.steps, args.p_min, args.maximal_atol,
        avg_threshold=args.avg_min, grid_step=args.grid, workers=workers,
    )
    count = _write_csv(args.out, meta, header, _search_blocks(axes, pieces))
    print(f"{count} hits", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify


def _random(operator, rng):
    """A CoinOperator or ShiftOperator with each parameter drawn uniformly
    over its `PARAM_RANGES` domain, in field order."""
    return operator(*(rng.uniform(*PARAM_RANGES[f.name][:2]) for f in fields(operator)))


def _suite_unitarity(samples: int, rng) -> tuple[list[str], float]:
    failures, worst = [], 0.0
    coins = [family_coin(f) for f in (CoinFamily.HADAMARD, CoinFamily.KEMPE, CoinFamily.Z)]
    coins += [_random(CoinOperator, rng) for _ in range(samples)]
    for coin in coins:
        residual = coin.unitarity_residual()
        worst = max(worst, residual)
        if residual >= UNITARITY_ATOL:
            failures.append(f"coin {coin} residual {residual:.3e}")
    for _ in range(samples):
        shift = _random(ShiftOperator, rng)
        ok, residual = verify_shift_unitarity(shift)
        worst = max(worst, residual)
        if not ok:
            failures.append(f"shift {shift} residual {residual:.3e}")
    # negative control: a corrupted coefficient pair must be detected
    bad = orthonormality_residual(0.6 + 0j, complex(0.8 + 1e-3, 0.0))
    if bad < UNITARITY_ATOL:
        failures.append("corrupted coefficient pair passed the unitarity check")
    return failures, worst


def _engine_residual(coin: CoinOperator, shift: ShiftOperator, n_steps: int = 800) -> float:
    """Largest difference of P, N, E or normalized E over every step and
    outcome between the complex walk of U and V and the real walk of r."""
    full = walk_batch(coin.matrix()[None], shift.matrix()[None], n_steps)
    real = walk_batch(_real_coins(**vars(coin), **vars(shift)), None, n_steps)
    pairs = (zip(collapse_metrics(x), collapse_metrics(y)) for (_, x), (_, y) in zip(full, real))
    return max(float(np.max(np.abs(x - y))) for pair in pairs for x, y in pair)


def _suite_oracle(samples: int, rng) -> tuple[list[str], float]:
    failures, worst_all = [], 0.0
    for i in range(samples):
        coin, shift = _random(CoinOperator, rng), _random(ShiftOperator, rng)
        if i < 3:  # N differs by at least 1, so a mismatch of N fails too
            residual = _engine_residual(coin, shift)
            worst_all = max(worst_all, residual)
            if not residual <= 1e-12:  # NaN fails too
                failures.append(f"real walk differs by {residual:.3e} at {coin} {shift}")
        one = step(initial_state(), coin, shift)
        up1, down1 = phi1(coin, shift)
        err1 = max(
            abs(one.amplitude(Spin.UP, 1) - up1),
            abs(one.amplitude(Spin.DOWN, -1) - down1),
        )
        two = step(one, coin, shift)
        worst = err1
        for closed, outcome in ((psi_up_2(coin, shift), Spin.UP), (psi_down_2(coin, shift), Spin.DOWN)):
            result = measure_spin(two, outcome)
            worst = max(worst, abs(result.probability - closed.probability))
            if closed.probability > 1e-20:
                expect = closed.normalized_amps()
                got = np.array([result.amplitude(s) for s in closed.sites])
                pivot = int(np.argmax(np.abs(expect)))
                got = got * (expect[pivot] / got[pivot] / abs(expect[pivot] / got[pivot]))
                worst = max(worst, float(np.max(np.abs(got - expect))))
        worst_all = max(worst_all, worst)
        if worst > 1e-12:
            failures.append(f"closed-form mismatch {worst:.3e} at {coin} {shift}")
    return failures, worst_all


def _suite_special_points(n_steps: int = 500) -> tuple[list[str], float]:
    """Chains and the bounce, on the complex walk and on the real walk of
    r that every CSV comes from.  The residual is the largest deviation
    of a chain amplitude's modulus from 1, of a chain's P_down from 0, or
    of a bounce amplitude beside the one that carries the state from 0
    (the modulus a spurious term would have), and on the real walk of a
    chain's P_down from 0, P_up from 1 or E from 0, or of the bounce's
    largest N from 1.  The real walk must hit those values exactly.
    """
    failures, worst = [], 0.0
    chains = [
        ("hadamard, real balanced shift", family_coin(CoinFamily.HADAMARD), balanced_shift(0.0)),
        ("kempe, beta phase 3pi/2", family_coin(CoinFamily.KEMPE), balanced_shift(3 * _QUARTER)),
    ]
    for label, coin, shift in chains:
        for state in iter_steps(coin, shift, n_steps):
            n = state.step
            drift = abs(abs(state.amplitude(Spin.UP, n)) - 1.0)
            leak = measure_spin(state, Spin.DOWN).probability
            worst = max(worst, drift, leak)
            if drift > 1e-10:
                failures.append(f"{label}: chain broken at step {n}")
                break
            if leak != 0.0:
                failures.append(f"{label}: down leakage at step {n}")
                break
    # kempe with beta phase pi/2 degenerates to a two-site bounce; every
    # step stays a product state with zero entanglement for both outcomes
    coin = family_coin(CoinFamily.KEMPE)
    for state in iter_steps(coin, balanced_shift(_QUARTER), n_steps):
        up = measure_spin(state, Spin.UP)
        down = measure_spin(state, Spin.DOWN)
        for result in (up, down):
            if result.amps.size > 1:
                worst = max(worst, float(np.sort(np.abs(result.amps))[-2]))
        if up.term_count > 1 or down.term_count > 1:
            failures.append(f"kempe, beta phase pi/2: entangled terms at step {state.step}")
            break
    points = [(coin, shift) for _, coin, shift in chains] + [(coin, balanced_shift(_QUARTER))]
    params = np.array([[*vars(c).values(), *vars(s).values()] for c, s in points]).T
    real = _metric_series(_real_coins(*params), n_steps)
    chain = np.max([  # by step, over the two chains
        np.abs(real.probability[:, Spin.DOWN.row, :2]),
        np.abs(real.probability[:, Spin.UP.row, :2] - 1.0),
        np.abs(real.entropy[:, :, :2]).max(axis=1),
    ], axis=(0, 2))
    bounce = real.term_count[:, :, 2].max(axis=1) - 1
    worst = max(worst, float(chain.max()), float(bounce.max()))
    for label, broken in (("chains", chain != 0.0), ("kempe bounce", bounce > 0)):
        if broken.any():
            failures.append(f"real walk of r, {label}: not exact at step {np.argmax(broken) + 1}")
    return failures, worst


def cmd_verify(args) -> int:
    rng = np.random.default_rng(20240815)
    suites = {
        "unitarity": lambda: _suite_unitarity(args.samples, rng),
        "oracle": lambda: _suite_oracle(args.samples, rng),
        "special-points": lambda: _suite_special_points(),
    }
    selected = suites if args.suite == "all" else {args.suite: suites[args.suite]}
    failed = False
    for name, run in selected.items():
        failures, worst = run()
        status = "pass" if not failures else "FAIL"
        print(f"{name}: {status} (worst {worst:.1e})")
        for line in failures[:10]:
            print(f"  {line}", file=sys.stderr)
        failed = failed or bool(failures)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandemwalk",
        description="Coined quantum walk of two walkers moving in tandem: "
        "evolution, entanglement measures and parameter-space searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="run one walk, emit per-step entanglement")
    _add_common(p_evolve)
    _add_operator_args(p_evolve)
    p_evolve.add_argument("--steps", type=_positive_int, default=200)
    p_evolve.add_argument("--outcome", choices=["up", "down", "both"], default="both")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, emit a table")
    _add_common(p_sweep)
    _add_operator_args(p_sweep)
    p_sweep.add_argument("--figure", choices=_FIGURES, help="named preset scan")
    p_sweep.add_argument("--sweep", choices=list(PARAM_RANGES))
    p_sweep.add_argument("--start", type=float, default=0.0)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--step", type=float, default=0.005)
    p_sweep.add_argument("--steps", type=int, help="walk length (presets default 200/800)")
    p_sweep.add_argument("--outcome", choices=["up", "down", "both"], default="both")
    p_sweep.add_argument(
        "--mode", choices=[m.value for m in SweepMode], default="averaged"
    )

    p_search = sub.add_parser("search", help="scan parameter space for maximal entanglement")
    _add_common(p_search)
    p_search.add_argument(
        "--mode", choices=[m.value for m in SearchMode], default="isolated"
    )
    p_search.add_argument(
        "--coin", choices=[f.value for f in CoinFamily], default="general"
    )
    p_search.add_argument("--grid", type=float, default=0.1, help="grid step")
    p_search.add_argument("--steps", type=int, default=10)
    p_search.add_argument("--p-min", type=float, default=0.15)
    p_search.add_argument("--avg-min", type=float, default=0.99)
    p_search.add_argument(
        "--maximal-atol",
        type=float,
        default=MAXIMAL_ATOL,
        help="entanglement counts as maximal above 1 - this tolerance",
    )
    p_search.add_argument(
        "--workers", type=_positive_int, help="process count (QRW_WORKERS, then cores)"
    )

    p_verify = sub.add_parser("verify", help="run the correctness suites")
    p_verify.add_argument(
        "--suite",
        choices=["all", "unitarity", "oracle", "special-points"],
        default="all",
    )
    p_verify.add_argument("--samples", type=_positive_int, default=300)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built on a process's first `main` call and
    reused by every later one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in {"evolve", "sweep", "search"}:  # the commands with --config
        try:
            argv = [argv[0], *_merge_config(argv[1:])]
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the offending flag
        return int(exc.code or 0)
    try:
        # by name when called: the cached parser holds no command function
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError) as exc:  # bad input, or an --out the system refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

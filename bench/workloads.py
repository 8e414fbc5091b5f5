"""Seeded workload definitions for the tandemwalk benchmark.

A workload is a fixed list of operations; one pass runs each of them
once through ``tandemwalk.cli.main``.  The seed chooses the parameters
that go on the command lines and nothing else: the amount of work in a
pass (walk count, walk lengths, grid sizes) is the same for every seed,
so pass times from different seeds are comparable.
"""

from dataclasses import dataclass, field

import numpy as np

from tandemwalk import grid_axis
from tandemwalk.sweep import PARAM_RANGES

WORKLOADS = ("walks", "sweeps", "search-averaged", "search-isolated")

#: walk length for the averaged preset scans in `sweeps`; the presets'
#: own 200 steps over their 0.005 grids would take minutes per pass
PRESET_STEPS = 6

#: grid step of the full-resolution averaged scan that `full_scan_h`
#: projects to
FULL_SCAN_GRID = 0.05


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload.

    argv excludes --out and --workers; `run.py` adds them.  steps is the
    walk length; points the number of walks the call evolves (None when
    it is counted from the output, as for sweeps).  check holds what the
    correctness gate needs to know about the call.
    """

    label: str
    argv: tuple[str, ...]
    kind: str  # "walk" | "sweep" | "averaged" | "isolated"
    steps: int
    points: int | None = None
    check: dict = field(default_factory=dict)

    def command(self, out: str, workers: int | None) -> list[str]:
        argv = list(self.argv)
        if self.kind in ("averaged", "isolated") and workers is not None:
            argv += ["--workers", str(workers)]
        return argv + ["--out", out]


def grid_points(grid_step: float) -> int:
    """Number of points `search` visits on the full 5-D grid."""
    return int(np.prod([grid_axis(name, grid_step).size for name in PARAM_RANGES]))


def _f(x: float) -> str:
    return repr(float(x))


def _general_coin(rng) -> dict:
    return {
        "rho": rng.uniform(0.05, 0.95),
        "theta": rng.uniform(0.0, np.pi),
        "eta": rng.uniform(0.0, np.pi),
        "alpha": rng.uniform(0.05, 0.95),
        "beta_arg": rng.uniform(0.0, 2 * np.pi),
    }


def _coin_args(params: dict, skip: str = "") -> list[str]:
    argv = ["--coin", "general"]
    for key in ("rho", "theta", "eta", "alpha", "beta_arg"):
        if key != skip:
            argv += ["--" + key.replace("_", "-"), _f(params[key])]
    return argv


def _walks(rng) -> list[Op]:
    ops = []
    # 8 of 15 calls at 200 steps plus the 3 special points keep the median
    # inside the 200-step group and the 90th percentile inside the 800-step one
    for i, n in enumerate([200] * 8 + [800] * 4):
        params = _general_coin(rng)
        argv = ("evolve", *_coin_args(params), "--steps", str(n), "--outcome", "both")
        ops.append(Op(f"walk{i:02d}-general-{n}", argv, "walk", n, 1, {"params": params}))
    specials = (
        ("hadamard-chain", "hadamard", "0", "chain"),
        ("kempe-chain", "kempe", "3pi/2", "chain"),
        ("kempe-bounce", "kempe", "pi/2", "bounce"),
    )
    for label, coin, phase, special in specials:
        argv = ("evolve", "--coin", coin, "--alpha", "r2inv", "--beta-arg", phase,
                "--steps", "200", "--outcome", "both")
        ops.append(Op(label, argv, "walk", 200, 1, {"special": special}))
    return ops


def _sweeps(rng) -> list[Op]:
    ops = []
    for fig in ("fig1", "fig3", "fig4", "fig5", "fig6"):
        argv = ("sweep", "--figure", fig, "--steps", str(PRESET_STEPS))
        ops.append(Op(fig, argv, "sweep", PRESET_STEPS, check={"figure": fig}))
    ops.append(Op("fig2", ("sweep", "--figure", "fig2"), "sweep", 800, check={"figure": "fig2"}))
    # stop = start + 14 step exactly, so every seed sweeps 15 grid values;
    # the alpha range always contains the balanced point the CLI inserts
    params = _general_coin(rng)
    start, step = rng.uniform(0.3, 0.5), rng.uniform(0.03, 0.034)
    argv = ("sweep", *_coin_args(params, skip="alpha"), "--sweep", "alpha",
            "--start", _f(start), "--stop", _f(start + step * 14), "--step", _f(step),
            "--steps", "200")
    check = {"params": params, "swept": "alpha", "row": int(rng.integers(2**31))}
    ops.append(Op("line-alpha", argv, "sweep", 200, check=check))
    params = _general_coin(rng)
    start, step = rng.uniform(0.1, 1.0), rng.uniform(0.1, 0.14)
    argv = ("sweep", *_coin_args(params, skip="theta"), "--sweep", "theta",
            "--start", _f(start), "--stop", _f(start + step * 14), "--step", _f(step),
            "--steps", "200")
    check = {"params": params, "swept": "theta", "row": int(rng.integers(2**31))}
    ops.append(Op("line-theta", argv, "sweep", 200, check=check))
    return ops


def _search_averaged(rng) -> list[Op]:
    # every grid step in (0.8976, 1) visits the same 1575 points; 0.9-0.95
    # keeps the low-threshold run at a few hundred hits to revalidate
    grid = rng.uniform(0.90, 0.95)
    low = rng.uniform(0.74, 0.76)
    points = grid_points(grid)
    ops = []
    for label, avg_min in (("default-threshold", 0.99), ("low-threshold", low)):
        argv = ("search", "--mode", "averaged", "--grid", _f(grid), "--steps", "200",
                "--p-min", "0.15", "--avg-min", _f(avg_min))
        check = {"p_min": 0.15, "avg_min": avg_min}
        ops.append(Op(f"averaged-{label}", argv, "averaged", 200, points, check))
    return ops


def _search_isolated(rng) -> list[Op]:
    # grid fixed at 0.3 (75,600 points): its hit count, which sets the
    # share of time spent writing CSV, moves by 10% between nearby steps
    argv = ("search", "--mode", "isolated", "--grid", "0.3", "--steps", "10",
            "--p-min", "0.15")
    check = {"p_min": 0.15, "sample_seed": int(rng.integers(2**31))}
    return [Op("isolated", argv, "isolated", 10, grid_points(0.3), check)]


def build(workload: str, seed: int) -> list[Op]:
    """Operations of one pass of `workload` for `seed`."""
    makers = {
        "walks": _walks,
        "sweeps": _sweeps,
        "search-averaged": _search_averaged,
        "search-isolated": _search_isolated,
    }
    return makers[workload](np.random.default_rng(seed))

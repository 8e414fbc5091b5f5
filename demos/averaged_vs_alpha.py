"""Averaged entanglement against alpha for the hadamard and z coins.

Sweeps alpha with real beta and writes one CSV per coin. The hadamard
curve climbs toward 1 as alpha approaches 1/sqrt(2) from either side,
then collapses to exactly zero at the balanced point itself, where the
walk degenerates into a product-state chain. The z curve stays well
below 1 everywhere.
"""

from tandemwalk import CoinFamily, SweepSpec, sweep_1d

N_STEPS = 200

for family in (CoinFamily.HADAMARD, CoinFamily.Z):
    spec = SweepSpec(
        coin_family=family,
        swept="alpha",
        start=0.0,
        stop=1.0,
        step=0.02,
        n_steps=N_STEPS,
        fixed={"beta_arg": 0.0},
    )  # an alpha sweep always contains the exact balanced point
    header, rows = sweep_1d(spec)
    path = f"averaged_vs_alpha_{family.value}.csv"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"{family.value}: {len(rows)} rows -> {path}")

    down = [(r[0], r[2]) for r in rows if r[1] == "down"]
    print(" alpha    avg")
    for alpha, value in down:
        if 0.64 < alpha < 0.76 or alpha in (0.0, 1.0):
            marker = "  <- balanced point" if value == 0.0 and 0.7 < alpha < 0.71 else ""
            print(f" {alpha:8.6f} {value:.6f}{marker}")

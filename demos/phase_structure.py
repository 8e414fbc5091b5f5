"""Averaged entanglement as a function of the beta phase.

For the kempe coin at the balanced alpha the dependence on arg(beta) is
rich: plateaus near 0.5 around pi/2, a climb toward 1 near 3pi/2, and
isolated exact zeros at the quarter turns where the walk degenerates
(a two-site bounce at pi/2, a product-state chain at 3pi/2).
"""

import numpy as np

from tandemwalk import BALANCED_ALPHA, CoinFamily, SweepSpec, sweep_1d

spec = SweepSpec(
    coin_family=CoinFamily.KEMPE,
    swept="beta_arg",
    start=0.0,
    stop=2 * float(np.pi),
    step=0.02,
    n_steps=200,
    fixed={"alpha": BALANCED_ALPHA},
)
header, rows = sweep_1d(spec)
with open("kempe_phase_structure.csv", "w") as fh:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(str(x) for x in row) + "\n")
print(f"{len(rows)} rows -> kempe_phase_structure.csv")

# the exact quarter turns are not on the 0.02 grid; show them separately
from tandemwalk import Spin, averaged_entanglement, balanced_shift, kempe_coin

for label, phase in (("pi/2", np.pi / 2), ("3pi/2", 3 * np.pi / 2)):
    down = averaged_entanglement(kempe_coin(), balanced_shift(phase), 200, Spin.DOWN)
    up = averaged_entanglement(kempe_coin(), balanced_shift(phase), 200, Spin.UP)
    print(f"arg(beta) = {label}: avg down = {down.value}, avg up = {up.value}")

near = averaged_entanglement(
    kempe_coin(), balanced_shift(np.pi / 2 + 1e-9), 200, Spin.DOWN
)
print(f"arg(beta) = pi/2 + 1e-9: avg down = {near.value}  (100/199 = {100/199})")

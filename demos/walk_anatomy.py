"""Tour of one walk: build the operators, evolve, measure, score.

Two walkers sit on the same site of the integer line and move together.
A spin-1/2 coin is tossed with a 2x2 unitary, then the pair is shifted
right or left depending on the coin. Measuring the coin afterwards
leaves the pair in a superposition of positions, and the entropy of that
superposition is the walker-walker entanglement.
"""

import numpy as np

from tandemwalk import (
    ShiftOperator,
    Spin,
    entropy,
    evolve,
    hadamard_coin,
    measure_spin,
    normalized_entanglement,
    verify_shift_unitarity,
)

coin = hadamard_coin()
print("coin matrix:")
print(coin.matrix())

# alpha weights the straight-through motion, beta (derived, with a free
# phase) the cross coupling; both rows of the shift stay orthonormal
shift = ShiftOperator(alpha=0.6, beta_arg=np.pi / 3)
print("\n|beta| =", abs(shift.beta), " unitary:", verify_shift_unitarity(shift))

state = evolve(coin, shift, 12)
print("\nafter 12 steps: norm =", state.norm())

for outcome in (Spin.UP, Spin.DOWN):
    collapsed = measure_spin(state, outcome)
    print(f"\nmeasured {outcome.value}: P = {collapsed.probability:.4f}, "
          f"N = {collapsed.term_count} terms")
    print(f"  entropy      = {entropy(collapsed.amps):.4f} bits")
    print(f"  normalized   = {normalized_entanglement(collapsed.amps):.4f}")
    weights = np.abs(collapsed.amps) ** 2
    top = np.argsort(weights)[::-1][:5]
    for k in top:
        print(f"  site {collapsed.sites()[k]:+3d}: |c|^2 = {weights[k]:.4f}")

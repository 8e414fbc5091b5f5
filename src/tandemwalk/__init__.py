"""Coined quantum walk of two walkers moving in tandem on the integer
line, with entanglement measures and parameter-space search tools."""

__version__ = "0.1.0"

from .core import (
    BALANCED_ALPHA,
    TERM_THRESHOLD,
    UNITARITY_ATOL,
    CoinOperator,
    CollapseResult,
    ShiftOperator,
    Spin,
    WalkState,
    balanced_shift,
    collapse_metrics,
    evolve,
    hadamard_coin,
    initial_state,
    iter_steps,
    kempe_coin,
    measure_spin,
    orthonormality_residual,
    phase_factor,
    step,
    verify_shift_unitarity,
    walk_batch,
    z_coin,
)
from .entanglement import (
    AveragedEntanglement,
    EntanglementRecord,
    averaged_entanglement,
    entropy,
    normalized_entanglement,
    term_count,
    walk_entanglement_series,
)
from .analytic import (
    MODULUS_ATOL,
    Step2State,
    max_condition_up,
    phi1,
    psi_down_2,
    psi_up_2,
)
from .sweep import (
    MAXIMAL_ATOL,
    CoinFamily,
    MaxEntanglementHit,
    SearchMode,
    SweepMode,
    SweepSpec,
    family_coin,
    find_max_cases,
    grid_axis,
    grid_search,
    sweep_1d,
)

#: every name imported above but the submodules
_MODULES = {"analytic", "core", "entanglement", "sweep"}
__all__ = ["__version__", *(name for name in dir() if name[0] != "_" and name not in _MODULES)]

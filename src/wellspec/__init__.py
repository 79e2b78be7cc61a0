"""Bound states of a particle in a unit well with an interior delta potential."""

from .errors import (
    ConvergenceFailure,
    DomainError,
    InconsistentState,
    PositionOutOfRange,
    SolverFailure,
)
from .model import DimensionlessConfig, RationalPosition, reduce_position
from .spectrum import (
    DEFAULT_K_MAX,
    NODAL,
    ORDINARY_NEGATIVE,
    ORDINARY_POSITIVE,
    EigenState,
    Spectrum,
    coupling,
    decoupled,
    dispersion_residual,
    full_spectrum,
    ground_states,
    near_wall_energy,
    rhs_negative,
    rhs_positive,
    strong_coupling_estimates,
    weak_coupling_estimate,
    zero_energy_positions,
)
from .wavefn import (
    PiecewiseWave,
    build_wave,
    evaluate,
    gram_matrix,
    matching_defect,
)
from .oracle import oracle_spectrum

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""laddyn: exact dynamics of a Bell-seeded four-qubit triangular spin ladder.

XX exchange on the rungs, z-axis DM coupling on the legs; spectral (exact)
time evolution, Wootters concurrence and spin correlations, closed-form
cross-checks, and detection of entanglement-transfer and W-state events.
"""

from .analytic import (
    PairClass,
    SpectralParams,
    classify_pair,
    concurrence_formula,
    correlation_formula,
    eta_xi,
    leg_correlation,
    spectral_params,
    transfer_times,
    w_times,
)
from .detect import EventRecord, find_events, w_fidelity, w_time_curves
from .dynamics import (
    Propagator,
    evolve,
    evolve_states,
    make_propagator,
    one_particle_amplitudes,
    sector_leakage,
)
from .errors import (
    DomainError,
    LaddynError,
    NumericalFailureError,
    SectorLeakageError,
    ValidationError,
)
from .linalg import check_sites
from .measures import concurrence_one_particle, two_point_correlation
from .model import (
    ModelParams,
    build_hamiltonian,
    initial_state,
    one_particle_hamiltonian,
    propagator,
    spin_operator,
)
from .tables import ALL_PAIRS, LEG_CLASS_PAIRS, BlockTable, sweep

__version__ = "0.1.0"

__all__ = (
    # analytic
    "PairClass",
    "SpectralParams",
    "classify_pair",
    "concurrence_formula",
    "correlation_formula",
    "eta_xi",
    "leg_correlation",
    "spectral_params",
    "transfer_times",
    "w_times",
    # detect
    "EventRecord",
    "find_events",
    "w_fidelity",
    "w_time_curves",
    # dynamics
    "Propagator",
    "evolve",
    "evolve_states",
    "make_propagator",
    "one_particle_amplitudes",
    "sector_leakage",
    # errors
    "DomainError",
    "LaddynError",
    "NumericalFailureError",
    "SectorLeakageError",
    "ValidationError",
    # linalg
    "check_sites",
    # measures
    "concurrence_one_particle",
    "two_point_correlation",
    # model
    "ModelParams",
    "build_hamiltonian",
    "initial_state",
    "one_particle_hamiltonian",
    "propagator",
    "spin_operator",
    # tables
    "ALL_PAIRS",
    "LEG_CLASS_PAIRS",
    "BlockTable",
    "sweep",
)

"""Simulator for phase synchronization of a driven, dissipative spin pair.

The library models a heteronuclear two-spin system under weak resonant
driving and thermal relaxation, and analyses the resulting states with
SU(4) spin-coherent phase-space tools: the reduced Husimi distribution,
a phase synchronization measure, and a gate-level interferometric
readout of the same distribution.
"""

from .system import (
    DriveConfig,
    SpinSystemConfig,
    check_density_matrix,
    default_purity_factors,
    fermionic_probabilities,
    spin_operator,
    thermal_state,
)
from .hamiltonians import (
    detuning_term,
    drive_term,
    rotating_drift,
)
from .dissipation import (
    JumpOperator,
    build_jump_operators,
    transition_rate,
)
from .liouville import (
    AffineLiouvillian,
    SpectralReport,
    build_affine_liouvillian,
    build_l0,
    build_liouvillian,
    build_lv,
    devectorize,
    propagate,
    spectral_report,
    steady_state,
    vectorize,
)
from .phasespace import (
    HUSIMI_PREFACTOR,
    SYNC_COEFFICIENT,
    UNIFORM_PHASE_DENSITY,
    HaarQuadrature,
    HusimiGrid,
    completeness_check,
    haar_quadrature,
    husimi_grid,
    husimi_normalization,
    husimi_reduced,
    state_visibility,
    sync_measure_full,
    sync_measure_max,
    sync_measure_quadrature,
    visibility,
)
from .imhd import (
    Gate,
    build_controlled_phase,
    build_pseudo_hadamard,
    imhd_scan,
    leakage_bound,
)
from .experiments import (
    CalibrationResult,
    DriveSeriesPoint,
    LimitCycleResult,
    SweepResult,
    calibrate_drive,
    run_amplitude_sweep,
    run_arnold_tongue,
    run_drive_series,
    run_limit_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "HUSIMI_PREFACTOR",
    "SYNC_COEFFICIENT",
    "UNIFORM_PHASE_DENSITY",
    "AffineLiouvillian",
    "CalibrationResult",
    "DriveConfig",
    "DriveSeriesPoint",
    "Gate",
    "HaarQuadrature",
    "HusimiGrid",
    "JumpOperator",
    "LimitCycleResult",
    "SpectralReport",
    "SpinSystemConfig",
    "SweepResult",
    "build_affine_liouvillian",
    "build_controlled_phase",
    "build_jump_operators",
    "build_l0",
    "build_liouvillian",
    "build_lv",
    "build_pseudo_hadamard",
    "calibrate_drive",
    "check_density_matrix",
    "completeness_check",
    "default_purity_factors",
    "detuning_term",
    "devectorize",
    "drive_term",
    "fermionic_probabilities",
    "haar_quadrature",
    "husimi_grid",
    "husimi_normalization",
    "husimi_reduced",
    "imhd_scan",
    "leakage_bound",
    "propagate",
    "rotating_drift",
    "run_amplitude_sweep",
    "run_arnold_tongue",
    "run_drive_series",
    "run_limit_cycle",
    "spectral_report",
    "spin_operator",
    "state_visibility",
    "steady_state",
    "sync_measure_full",
    "sync_measure_max",
    "sync_measure_quadrature",
    "thermal_state",
    "transition_rate",
    "vectorize",
    "visibility",
]

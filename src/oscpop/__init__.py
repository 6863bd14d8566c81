"""Population dynamics under a time-varying carrying capacity.

The package couples a logistic growth law to capacity schedules that
change over time (square waves, sinusoids, tabulated data) and provides
closed-form solutions where they exist, adaptive numerical integration
where they do not, analysis of periodic steady states, and the discrete
logistic update map with its period-doubling cascade.
"""
from .capacity import (
    CapacitySchedule,
    Constant,
    SinusoidOffset,
    SolverConfig,
    Tabulated,
    TwoPhase,
    load_capacity_csv,
    parse_schedule,
)
from .closedform import (
    LogisticParams,
    logistic_constant,
    quadrature_solution,
    reciprocal_solution,
    two_phase_trajectory,
)
from .discretemap import (
    BifurcationRecord,
    ScanConfig,
    ScanResult,
    bifurcation_scan,
    detect_attractor,
    iterate_map,
    normalized_state,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExponentOverflowError,
    NonDifferentiableError,
    NoPeriodicSolutionError,
    NumericsError,
    OscPopError,
    PoleError,
    ScheduleRangeError,
    StiffnessError,
)
from .odesolve import (
    SolverStats,
    Trajectory,
    adaptive_quadrature,
    integrate_logistic,
    integrate_riccati,
)
from .periodic import (
    PeriodicSolution,
    TwoPhaseReport,
    find_periodic_solution,
    half_peak_fraction,
    mean_identity_residual,
    orbit_identity_residual,
    period_map,
    square_deviation_identity,
    time_average,
    two_phase_deductions,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # capacity schedules
    "CapacitySchedule",
    "Constant",
    "TwoPhase",
    "SinusoidOffset",
    "Tabulated",
    "SolverConfig",
    "load_capacity_csv",
    "parse_schedule",
    # closed forms
    "LogisticParams",
    "logistic_constant",
    "two_phase_trajectory",
    "quadrature_solution",
    "reciprocal_solution",
    # numerical integration
    "Trajectory",
    "SolverStats",
    "integrate_logistic",
    "integrate_riccati",
    "adaptive_quadrature",
    # periodic steady states
    "PeriodicSolution",
    "TwoPhaseReport",
    "period_map",
    "find_periodic_solution",
    "orbit_identity_residual",
    "mean_identity_residual",
    "square_deviation_identity",
    "time_average",
    "half_peak_fraction",
    "two_phase_deductions",
    # discrete map
    "normalized_state",
    "iterate_map",
    "detect_attractor",
    "BifurcationRecord",
    "ScanConfig",
    "ScanResult",
    "bifurcation_scan",
    # errors
    "OscPopError",
    "DomainError",
    "NumericsError",
    "ScheduleRangeError",
    "NonDifferentiableError",
    "PoleError",
    "NoPeriodicSolutionError",
    "ExponentOverflowError",
    "ConvergenceError",
    "StiffnessError",
    "DivergenceError",
]

"""Gaussian-moment quench simulator for fully-connected critical models.

Propagates driven, dissipative single-mode Gaussian states through
linear and nonlinear coupling ramps, extends the environment to a
structured (auxiliary-oscillator) bath via a time-dependent Lyapunov
equation, and fits power-law scaling of the dissipative excess of
observables against the quench time.
"""

from ._ode import DEFAULT_SETTINGS, IntegratorSettings
from .errors import (
    ConfigError,
    DomainError,
    InsufficientDataError,
    IntegrationFailure,
    NonLoggableDataError,
    PhysicalityError,
    RegimeError,
)
from .model import (
    MEAN_FIELD,
    OBSERVABLES,
    CriticalExponents,
    ModelKind,
    ModelSpec,
    gap,
    ground_state_energy,
    ground_state_moments,
    predicted_kz_exponent,
)
from .moments import (
    ISOLATED,
    VACUUM,
    BathSpec,
    DeltaObservable,
    MomentState,
    MomentTrajectory,
    ObservableRecord,
    delta_observable,
    integrate,
    moment_rhs,
    observables_from_moments,
    steady_state_moments,
)
from .protocol import QuenchProtocol, impulse_boundary_exponent, linear_ramp
from .scaling import (
    PowerLawFit,
    Regime,
    ScalingPrediction,
    fit_power_law,
    inflection_time,
    kz_akz_tradeoff,
    optimal_quench_time,
    predicted_akz_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "ConfigError",
    "CriticalExponents",
    "DEFAULT_SETTINGS",
    "DeltaObservable",
    "DomainError",
    "ISOLATED",
    "InsufficientDataError",
    "IntegrationFailure",
    "IntegratorSettings",
    "MEAN_FIELD",
    "ModelKind",
    "ModelSpec",
    "MomentState",
    "MomentTrajectory",
    "NonLoggableDataError",
    "OBSERVABLES",
    "ObservableRecord",
    "PhysicalityError",
    "PowerLawFit",
    "QuenchProtocol",
    "Regime",
    "RegimeError",
    "ScalingPrediction",
    "VACUUM",
    "fit_power_law",
    "inflection_time",
    "kz_akz_tradeoff",
    "optimal_quench_time",
    "predicted_akz_exponent",
    "delta_observable",
    "gap",
    "ground_state_energy",
    "ground_state_moments",
    "impulse_boundary_exponent",
    "integrate",
    "linear_ramp",
    "moment_rhs",
    "observables_from_moments",
    "predicted_kz_exponent",
    "steady_state_moments",
]

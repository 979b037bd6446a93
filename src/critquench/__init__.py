"""Gaussian-covariance quench simulator for fully-connected critical models.

Propagates driven, dissipative Gaussian states through linear and
nonlinear coupling ramps with one time-dependent Lyapunov equation,
for a Markovian thermal bath on the single mode or a structured
(auxiliary-oscillator) bath, and fits power-law scaling of the
dissipative excess of observables against the quench time.
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
    excitation_gap,
    ground_state_energy,
    ground_state_covariance,
)
from .moments import (
    ISOLATED,
    BathSpec,
    CovarianceTrajectory,
    integrate,
    observables_from_covariance,
    steady_state_covariance,
    thermal_bath,
)
from .protocol import QuenchProtocol, impulse_boundary_exponent
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
    "CovarianceTrajectory",
    "CriticalExponents",
    "DEFAULT_SETTINGS",
    "DomainError",
    "ISOLATED",
    "InsufficientDataError",
    "IntegrationFailure",
    "IntegratorSettings",
    "MEAN_FIELD",
    "ModelKind",
    "ModelSpec",
    "NonLoggableDataError",
    "OBSERVABLES",
    "PhysicalityError",
    "PowerLawFit",
    "QuenchProtocol",
    "Regime",
    "RegimeError",
    "ScalingPrediction",
    "fit_power_law",
    "inflection_time",
    "kz_akz_tradeoff",
    "optimal_quench_time",
    "predicted_akz_exponent",
    "excitation_gap",
    "ground_state_energy",
    "ground_state_covariance",
    "impulse_boundary_exponent",
    "integrate",
    "observables_from_covariance",
    "steady_state_covariance",
    "thermal_bath",
]

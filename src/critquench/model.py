"""Fully-connected critical bosonic models and their equilibrium facts.

Covers the single-mode normal-phase Hamiltonian
``w a^dag a - (g^2 w / 4)(a + a^dag)^2`` shared by the quantum Rabi
model (QRM) and the Lipkin-Meshkov-Glick (LMG) model at large size,
its leading 1/eta finite-size corrections for both models, the
mean-field critical-exponent catalog, and closed-form ground-state
quantities (energy, gap, squeezed second moments) used as oracles by
the dynamical modules.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DomainError

CRITICAL_COUPLING = 1.0

#: Coefficient c in the QRM finite-size drive G = g^2 w/2 - c g^4 w/eta.
#: 12 is the standard replacement; 3/4 is what survives when the quartic
#: correction (a + a^dag)^4 / 16 is normal ordered and truncated to
#: quadratic terms.  Both are exposed; 12 is the default everywhere.
QRM_QUARTIC_COEFF = 12.0
QRM_QUARTIC_COEFF_NORMAL_ORDERED = 0.75

#: Canonical observable keys used across fits, reports and CSV columns.
OBSERVABLES = ("n", "dx", "dp", "e_r")


class ModelKind(str, enum.Enum):
    THERMODYNAMIC = "thermodynamic"
    QRM = "qrm"
    LMG = "lmg"


@dataclass(frozen=True)
class ModelSpec:
    """Which model variant to propagate and at what size."""

    kind: ModelKind = ModelKind.THERMODYNAMIC
    eta: float = math.inf
    omega: float = 1.0
    qrm_quartic_coeff: float = QRM_QUARTIC_COEFF

    def __post_init__(self):
        if not self.eta > 0.0:
            raise DomainError(f"eta must be positive, got {self.eta}")
        if not self.omega > 0.0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if self.kind is ModelKind.THERMODYNAMIC and math.isfinite(self.eta):
            raise DomainError("thermodynamic-limit model requires eta = inf")


THERMODYNAMIC = ModelSpec()


def _check_coupling(g) -> None:
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr < 0.0) or np.any(g_arr > CRITICAL_COUPLING):
        raise DomainError("coupling g must lie in [0, 1]")


@dataclass(frozen=True)
class CriticalExponents:
    """Mean-field exponent catalog of the normal-phase transition.

    ``z_nu`` governs the gap closing and ``gamma[obs]`` the equilibrium
    divergence of each observable near the critical coupling.  Values
    are exact rationals so downstream predictions stay exact.
    """

    z_nu: Fraction = Fraction(1, 2)
    gamma: Mapping[str, Fraction] = field(
        default_factory=lambda: MappingProxyType(
            {
                "n": Fraction(-1, 2),
                "dx": Fraction(-1, 4),
                "dp": Fraction(1, 4),
                "e_r": Fraction(1, 2),
            }
        )
    )
    d: int = 0

    def __post_init__(self):
        g = self.gamma
        # Magnitude chain of the quadrature/number exponents; the number
        # exponent is negative because the occupation diverges.
        if not g["dp"] == -g["dx"] == -g["n"] / 2:
            raise DomainError("gamma table must satisfy dp = -dx = -n/2")
        if g["e_r"] != self.z_nu:
            raise DomainError("residual-energy exponent must equal z_nu")

    def gamma_of(self, observable: str) -> Fraction:
        try:
            return self.gamma[observable]
        except KeyError:
            raise KeyError(
                f"unknown observable {observable!r}; known: {sorted(self.gamma)}"
            ) from None


MEAN_FIELD = CriticalExponents()


def gap(omega: float, g, k: int = 1) -> float:
    """Excitation energy of level k: ``k * omega * sqrt(1 - g^2)``."""
    _check_coupling(g)
    if k < 0 or k != int(k):
        raise DomainError(f"level index k must be a nonnegative integer, got {k}")
    g = np.asarray(g, dtype=float)
    out = k * omega * np.sqrt(1.0 - g * g)
    return out if out.ndim else float(out)


def ground_state_energy(omega: float, g) -> float:
    """Normal-phase ground-state energy ``omega (sqrt(1 - g^2) - 1) / 2``."""
    _check_coupling(g)
    g = np.asarray(g, dtype=float)
    out = 0.5 * omega * (np.sqrt(1.0 - g * g) - 1.0)
    return out if out.ndim else float(out)


def squeezing_parameter(g: float) -> float:
    """Ground-state squeezing ``s(g) = ln(1 - g^2) / 4``; singular at g = 1."""
    _check_coupling(g)
    if g == CRITICAL_COUPLING:
        raise DomainError("ground-state moments diverge at g = 1")
    return 0.25 * math.log(1.0 - g * g)


def ground_state_moments(g: float):
    """Second moments of the squeezed-vacuum ground state at coupling g.

    Returns a :class:`~critquench.moments.MomentState` with
    ``sigma = cosh(2s)/2`` and ``sigma10 = sinh(2s)/2`` for
    ``s = ln(1 - g^2)/4``, i.e. ``Delta x = (1-g^2)^{-1/4}``,
    ``Delta p = (1-g^2)^{1/4}`` and ``Delta x * Delta p = 1``.
    """
    from .moments import MomentState

    s = squeezing_parameter(g)
    return MomentState(
        sigma=0.5 * math.cosh(2.0 * s),
        sigma10=complex(0.5 * math.sinh(2.0 * s)),
    )


def predicted_kz_exponent(
    exponents: CriticalExponents, observable: str
) -> Fraction:
    """Isolated-quench exponent ``-gamma_A / (z_nu + 1)`` at criticality."""
    gamma = exponents.gamma_of(observable)
    return -gamma / (exponents.z_nu + 1)


def quadratic_coefficients(model: ModelSpec, g, eta=None):
    """Coefficients (w_tilde, lam) of the instantaneous quadratic form.

    Every model variant reduces to a single-mode quadratic Hamiltonian
    ``w_tilde a^dag a + lam (a^2 + a^dag^2)`` plus constants; the moment
    equations depend only on this pair, and ``-2 lam`` is the drive
    ``G = g^2 w/2`` of the thermodynamic limit.  QRM subtracts the
    quartic correction ``c g^4 w / eta`` from G; LMG splits its 1/eta
    corrections between the drive ``(g^2 w/2)(1 - 1/(2 eta))`` and the
    rotation shift ``2 w_tilde - 2 w = w g^2 (1/eta - 1)``.  ``eta``
    defaults to the model's size and may be an array broadcasting
    against g (size sweeps).  Unvalidated: this is the moment
    equations' hot path.
    """
    g = np.asarray(g, dtype=float)
    eta = model.eta if eta is None else eta
    omega = model.omega
    g2w = g * g * omega
    if model.kind is ModelKind.LMG:
        w_tilde = omega - 0.5 * g2w * (1.0 - 1.0 / eta)
        lam = -0.25 * g2w * (1.0 - 0.5 / eta)
        return w_tilde, lam
    drive = 0.5 * g2w
    if model.kind is ModelKind.QRM:
        drive = drive - model.qrm_quartic_coeff * g2w * g * g / eta
    return omega - drive, -0.5 * drive


def excitation_gap(model: ModelSpec, g) -> float:
    """Gap of the (possibly finite-size corrected) quadratic Hamiltonian."""
    _check_coupling(g)
    w_tilde, lam = quadratic_coefficients(model, g)
    arg = w_tilde * w_tilde - 4.0 * lam * lam
    out = np.sqrt(np.maximum(np.asarray(arg, dtype=float), 0.0))
    return out if out.ndim else float(out)

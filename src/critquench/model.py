"""Fully-connected critical bosonic models and their equilibrium facts.

Covers the single-mode normal-phase Hamiltonian
``w a^dag a - (g^2 w / 4)(a + a^dag)^2`` shared by the quantum Rabi
model (QRM) and the Lipkin-Meshkov-Glick (LMG) model at large size,
its leading 1/eta finite-size corrections for both models (the QRM
quartic in its standard replacement, :data:`QRM_QUARTIC_COEFF`), the
mean-field critical-exponent catalog, the excitation gap of each form
and closed-form ground-state quantities (energy, squeezed covariance).
No propagation calls them; the ground-state energy is the reference of
the residual energy ``e_r``
(:func:`critquench.moments.observables_from_covariance`), and the rest
are public API and the test suite's oracles.
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
#: 12 is the standard replacement of the quartic correction (Hwang, Puebla
#: & Plenio, PRL 115, 180404 (2015)).  The normal-ordered reduction (3/4)
#: and a Hartree closure of the quartic are ROADMAP item 12.
QRM_QUARTIC_COEFF = 12.0

#: Canonical observable keys used across fits, reports and CSV columns.
OBSERVABLES = ("n", "dx", "dp", "e_r")


class ModelKind(str, enum.Enum):
    THERMODYNAMIC = "thermodynamic"
    QRM = "qrm"
    LMG = "lmg"


@dataclass(frozen=True)
class ModelSpec:
    """Which model variant to propagate and at what size; ``kind`` may be given by name."""

    kind: ModelKind = ModelKind.THERMODYNAMIC
    eta: float = math.inf
    omega: float = 1.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ModelKind(self.kind))
        except ValueError:
            raise DomainError(f"unknown model kind {self.kind!r}") from None
        if not self.eta > 0.0:
            raise DomainError(f"eta must be positive, got {self.eta}")
        if not self.omega > 0.0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if self.kind is ModelKind.THERMODYNAMIC and math.isfinite(self.eta):
            raise DomainError("thermodynamic-limit model requires eta = inf")


THERMODYNAMIC = ModelSpec()


def _check_coupling(g) -> None:
    """Raise :class:`DomainError` unless every entry of ``g`` lies in [0, 1] (NaN does not)."""
    g_arr = np.asarray(g, dtype=float)
    if not np.all((g_arr >= 0.0) & (g_arr <= CRITICAL_COUPLING)):
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


def ground_state_energy(omega: float, g) -> float:
    """Normal-phase ground-state energy ``omega (sqrt(1 - g^2) - 1) / 2``."""
    _check_coupling(g)
    g = np.asarray(g, dtype=float)
    out = 0.5 * omega * (np.sqrt(1.0 - g * g) - 1.0)
    return out if out.ndim else float(out)


def ground_state_covariance(g: float) -> np.ndarray:
    """Quadrature covariance of the squeezed-vacuum ground state at coupling g.

    ``V = diag((1-g^2)^{-1/2}, (1-g^2)^{1/2})`` over ``(q, p)``, i.e.
    ``Delta x = (1-g^2)^{-1/4}``, ``Delta p = (1-g^2)^{1/4}`` and
    ``Delta x * Delta p = 1``; singular at g = 1.
    """
    _check_coupling(g)
    if g == CRITICAL_COUPLING:
        raise DomainError("ground-state covariance diverges at g = 1")
    root = math.sqrt(1.0 - g * g)
    return np.diag([1.0 / root, root])


def quadrature_coefficients(model: ModelSpec, eta=None):
    """Per-member polynomial coefficients of the quadrature form in ``x = g^2``.

    Returns ``(a, b)`` with ``h_qq = a0 + a1 x + a2 x^2`` and
    ``h_pp = b0 + b1 x``; ``a`` and ``b`` are tuples of arrays of the
    shape of ``eta`` (default: the model's size).  The thermodynamic
    limit is ``a = (w, -w, 0)``, ``b = (w, 0)``; QRM adds the quartic
    ``a2 = 2 c w / eta`` with ``c = QRM_QUARTIC_COEFF``; LMG has
    ``a1 = -w (1 - 3/(4 eta))`` and ``b1 = w / (4 eta)``.  This table
    is the one place the models' forms are written (see
    :func:`quadrature_form`).
    """
    eta = np.asarray(model.eta if eta is None else eta, dtype=float)
    omega = np.full_like(eta, model.omega)
    zero = np.zeros_like(eta)
    if model.kind is ModelKind.LMG:
        return (omega, -omega * (1.0 - 0.75 / eta), zero), (omega, 0.25 * omega / eta)
    if model.kind is ModelKind.QRM:
        return (omega, -omega, 2.0 * QRM_QUARTIC_COEFF * omega / eta), (omega, zero)
    return (omega, -omega, zero), (omega, zero)


def quadrature_form(model: ModelSpec, g, eta=None):
    """Coefficients (h_qq, h_pp) of ``H = (h_qq q^2 + h_pp p^2) / 2``.

    Every model variant reduces to this single-mode quadratic form in
    the quadratures ``a = (q + i p)/sqrt(2)``, up to constants.  The
    thermodynamic limit is ``(w - g^2 w, w)``.  QRM replaces ``g^2 w``
    by twice its drive ``G = g^2 w/2 - c g^4 w/eta``; LMG keeps
    ``h_qq = w - g^2 w (1 - 3/(4 eta))`` and stiffens the momentum to
    ``h_pp = w + g^2 w/(4 eta)``.  ``eta`` defaults to the model's size
    and may be an array broadcasting against g (size sweeps).  Evaluates
    the table of :func:`quadrature_coefficients` by Horner's rule at
    ``x = g^2``; unvalidated.
    """
    (a0, a1, a2), (b0, b1) = quadrature_coefficients(model, eta)
    g = np.asarray(g, dtype=float)
    x = g * g
    return a0 + x * (a1 + x * a2), b0 + x * b1


def excitation_gap(model: ModelSpec, g) -> float:
    """Gap ``sqrt(h_qq h_pp)`` of the (possibly finite-size corrected) form."""
    _check_coupling(g)
    h_qq, h_pp = quadrature_form(model, g)
    out = np.sqrt(np.maximum(np.asarray(h_qq * h_pp, dtype=float), 0.0))
    return out if out.ndim else float(out)

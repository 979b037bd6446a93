"""Time-dependent coupling ramps and the adiabatic-impulse boundary law.

The control parameter is driven from g(0) = 0 to g(tau_q) = g_final
through ``g(t) = g_final * (1 - (1 - t/tau_q)**r_n)``; ``r_n = 1`` is a
plain linear ramp.  Everything downstream (moment propagation, scaling
predictions) consumes these ramps.  Times are in units of the inverse
mode frequency; hbar = k_B = 1 throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def ramp_shape(s, r_n):
    """Dimensionless ramp profile ``1 - (1 - s)**r_n`` for s in [0, 1].

    The base is clamped to zero so that rounding noise at s = 1 cannot
    produce a negative base under a fractional exponent.  ``r_n == 1``
    short-circuits to ``s`` so the linear ramp is exact to the last bit.
    """
    s = np.asarray(s, dtype=float)
    r_n = np.asarray(r_n, dtype=float)
    base = np.maximum(1.0 - s, 0.0)
    generic = 1.0 - np.power(base, r_n)
    if r_n.ndim == 0:
        return s if r_n == 1.0 else generic
    return np.where(r_n == 1.0, s, generic)


@dataclass(frozen=True)
class QuenchProtocol:
    """Ramp of the dimensionless coupling: final value, duration, shape."""

    g_final: float
    tau_q: float
    r_n: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.g_final <= 1.0:
            raise DomainError(f"g_final must lie in [0, 1], got {self.g_final}")
        if not self.tau_q > 0.0:
            raise DomainError(f"tau_q must be positive, got {self.tau_q}")
        if not self.r_n > 0.0:
            raise DomainError(f"r_n must be positive, got {self.r_n}")

    def coupling(self, t):
        """g(t) for scalar or array t; t must lie within [0, tau_q]."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr > self.tau_q):
            raise DomainError(f"t outside [0, {self.tau_q}]")
        g = self.g_final * ramp_shape(t_arr / self.tau_q, self.r_n)
        return float(g) if np.ndim(t) == 0 else g


def impulse_boundary_exponent(z_nu: float, r_n: float) -> float:
    """Power of tau_q governing the adiabatic-impulse freezing distance.

    The coupling distance from criticality at which the dynamics stops
    following the instantaneous ground state scales as
    ``tau_q ** (-r_n / (z_nu * r_n + 1))``; this returns that exponent.
    """
    if not z_nu > 0.0:
        raise DomainError(f"z_nu must be positive, got {z_nu}")
    if not r_n > 0.0:
        raise DomainError(f"r_n must be positive, got {r_n}")
    return -r_n / (z_nu * r_n + 1.0)


def linear_ramp(g_final: float, tau_q: float) -> QuenchProtocol:
    """Shorthand for the r_n = 1 protocol."""
    return QuenchProtocol(g_final=g_final, tau_q=tau_q, r_n=1.0)

"""Time-dependent coupling ramps and the adiabatic-impulse boundary law.

The control parameter is driven from g(0) = 0 to g(tau_q) = g_final
through ``g(t) = g_final * (1 - (1 - t/tau_q)**r_n)``; ``r_n = 1`` is a
plain linear ramp.  Everything downstream (moment propagation, scaling
predictions) consumes these ramps.  Times are in the units the mode
frequency ``model.omega`` is given in, not in units of ``1/omega``,
and so are a Markovian bath's rate and temperature: ``omega = 2`` with
``tau_q = 50`` is the run at ``omega = 1`` with ``tau_q = 100`` once
the rate and temperature are halved too.  hbar = k_B = 1 throughout
the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def ramp_profile(r_n):
    """The profile ``s -> 1 - (1 - s)**r_n`` for fixed exponents ``r_n``.

    Everything a call would otherwise recompute about ``r_n`` (the array,
    whether every member is linear) is settled here once, so a
    propagation's right-hand side pays only the arithmetic.  An
    all-linear ``r_n`` returns ``s`` itself, so the linear ramp is exact
    to the last bit; otherwise every member goes through the power, and
    the base is clamped to zero so that rounding noise at s = 1 cannot
    produce a negative base under a fractional exponent.  A linear
    member of a mixed batch then gets ``1 - (1 - s)``, which may differ
    from ``s`` in the last bit: the one mixed-batch caller, the writer
    of :func:`critquench._flows._ramp`, takes those members from ``s``
    itself.  ``s`` is a float or an array broadcasting against ``r_n``.

    Per-member exponents go through one array ``np.power`` and must stay
    on that path: numpy's vectorized (AVX-512) ``pow`` differs from its
    scalar path in the last bit for about 5.5 % of inputs, so evaluating
    members one at a time, or through ``math.pow``, would move the
    sweep outputs of nonlinear ramps.
    """
    r_n = np.asarray(r_n, dtype=float)
    if np.all(r_n == 1.0):
        return lambda s: s

    def profile(s):
        return 1.0 - np.power(np.maximum(1.0 - s, 0.0), r_n)

    return profile


@dataclass(frozen=True)
class QuenchProtocol:
    """Ramp of the dimensionless coupling: final value, duration, shape."""

    g_final: float
    tau_q: float
    r_n: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.g_final <= 1.0:
            raise DomainError(f"g_final must lie in [0, 1], got {self.g_final}")
        if not 0.0 < self.tau_q < math.inf:
            raise DomainError(f"tau_q must be positive and finite, got {self.tau_q}")
        if not 0.0 < self.r_n < math.inf:
            raise DomainError(f"r_n must be positive and finite, got {self.r_n}")

    def coupling(self, t):
        """g(t) for scalar or array t; t must lie within [0, tau_q]."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr > self.tau_q):
            raise DomainError(f"t outside [0, {self.tau_q}]")
        g = self.g_final * ramp_profile(self.r_n)(t_arr / self.tau_q)
        return float(g) if np.ndim(t) == 0 else g


def impulse_boundary_exponent(z_nu: float, r_n: float) -> float:
    """Power of tau_q governing the adiabatic-impulse freezing distance.

    The coupling distance from criticality at which the dynamics stops
    following the instantaneous ground state scales as
    ``tau_q ** (-r_n / (z_nu * r_n + 1))``; this returns that exponent.
    """
    if not z_nu > 0.0:
        raise DomainError(f"z_nu must be positive, got {z_nu}")
    if not 0.0 < r_n < math.inf:
        raise DomainError(f"r_n must be positive and finite, got {r_n}")
    return -r_n / (z_nu * r_n + 1.0)

"""Adaptive explicit Runge-Kutta integration on array-valued states.

A single stepper drives every propagation in the package: the
covariance-matrix Lyapunov flow of whole sweep batches, stacked along a
leading axis.  The state may be any real or complex ndarray; the error
norm is one RMS over all elements of the batch, so members share one
step sequence and the tolerance bounds that RMS, not each member's own
error: one member may exceed it by up to the square root of the number
of elements.

The method is the 8th-order Dormand-Prince pair with the combined
5th/3rd-order error estimate, chosen because the sweep trajectories are
long (up to 1e5 oscillation-resolved time units) and high order keeps
the step count affordable at tolerances around 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rk_tableau as tab
from .errors import IntegrationFailure

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


@dataclass(frozen=True)
class IntegratorSettings:
    """Error-control contract for one propagation."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = np.inf
    max_steps: int = 50_000_000

    def __post_init__(self):
        if not (0.0 < self.rtol < np.inf and 0.0 < self.atol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")


DEFAULT_SETTINGS = IntegratorSettings()


def _error_norm(k_stack, h, scale):
    # Combined 5th/3rd-order estimate; the 3rd-order term damps
    # overcautious rejections on smooth stretches.
    err5 = np.tensordot(tab.E5, k_stack, axes=(0, 0)) / scale
    err3 = np.tensordot(tab.E3, k_stack, axes=(0, 0)) / scale
    err5_sq = np.real(np.vdot(err5, err5))
    err3_sq = np.real(np.vdot(err3, err3))
    if err5_sq == 0.0 and err3_sq == 0.0:
        return 0.0
    denom = err5_sq + 0.01 * err3_sq
    return abs(h) * err5_sq / np.sqrt(denom * err5.size)


def _initial_step(rhs, t0, y0, f0, direction, max_step, rtol, atol):
    """Hairer's starting-step heuristic for an order-8 method."""
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.real(np.vdot(y0 / scale, y0 / scale)) / y0.size)
    d1 = np.sqrt(np.real(np.vdot(f0 / scale, f0 / scale)) / y0.size)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = rhs(t0 + h0 * direction, y1)
    diff = (f1 - f0) / scale
    d2 = np.sqrt(np.real(np.vdot(diff, diff)) / y0.size) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, max_step)


def solve_to(rhs, t0, t1, y0, settings=DEFAULT_SETTINGS, t_samples=None):
    """Integrate ``dy/dt = rhs(t, y)`` from ``t0`` to ``t1 > t0``.

    ``t_samples`` is an optional increasing array of interior sample
    times; the step sequence is clamped so every sample (and ``t1``) is
    hit exactly.  Returns ``(ts, ys)`` where ``ts`` holds the sample
    times (always ending at ``t1``) and ``ys`` stacks the states along
    a new leading axis.

    Raises :class:`IntegrationFailure` when the step size underflows or
    the step budget is exhausted, carrying the last good time.
    """
    if not t1 > t0:
        raise ValueError("require t1 > t0")
    y = np.array(y0, copy=True)
    rtol, atol = settings.rtol, settings.atol

    targets = [float(t1)]
    if t_samples is not None:
        interior = [float(s) for s in np.atleast_1d(t_samples) if t0 < s < t1]
        targets = sorted(set(interior)) + targets

    out_ts: list[float] = []
    out_ys: list[np.ndarray] = []
    if t_samples is not None:
        for s in np.atleast_1d(t_samples):
            if s <= t0:
                out_ts.append(float(s))
                out_ys.append(y.copy())

    t = float(t0)
    f = rhs(t, y)
    h = _initial_step(rhs, t, y, f, 1.0, settings.max_step, rtol, atol)

    k_stack = np.empty((tab.N_STAGES + 1,) + y.shape, dtype=y.dtype)
    n_steps = 0
    target_idx = 0

    while target_idx < len(targets):
        t_goal = targets[target_idx]
        if n_steps >= settings.max_steps:
            raise IntegrationFailure("step budget exhausted", t_last=t)
        min_step = 10.0 * abs(np.nextafter(t, np.inf) - t)
        if not h >= min_step:  # also catches a NaN step
            raise IntegrationFailure("step size underflow", t_last=t)
        # clamp the attempt, not the proposal, so landing on a sample
        # time does not collapse the step size afterwards
        h_try = min(h, settings.max_step)
        clipped = t + h_try >= t_goal
        if clipped:
            h_try = t_goal - t

        k_stack[0] = f
        for i in range(1, tab.N_STAGES):
            dy = np.tensordot(tab.A[i, :i], k_stack[:i], axes=(0, 0))
            k_stack[i] = rhs(t + tab.C[i] * h_try, y + h_try * dy)
        y_new = y + h_try * np.tensordot(tab.B, k_stack[: tab.N_STAGES], axes=(0, 0))
        t_new = t_goal if clipped else t + h_try
        f_new = rhs(t_new, y_new)
        k_stack[tab.N_STAGES] = f_new

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(k_stack, h_try, scale)
        n_steps += 1

        if not np.isfinite(err):
            h = h_try * MIN_FACTOR
            continue
        if err > 1.0:
            h = h_try * max(MIN_FACTOR, SAFETY * err**tab.ERROR_EXPONENT)
            continue

        # accepted
        t, y, f = t_new, y_new, f_new
        factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**tab.ERROR_EXPONENT)
        if clipped:
            h = max(h, h_try * max(MIN_FACTOR, factor))
        else:
            h = h_try * max(MIN_FACTOR, factor)
        if clipped:
            out_ts.append(t)
            out_ys.append(y.copy())
            target_idx += 1

    return np.asarray(out_ts), np.stack(out_ys)


"""Adaptive explicit Runge-Kutta integration on array-valued states.

A single stepper drives every propagation in the package: the
covariance-matrix Lyapunov flow of whole sweep batches, stacked along a
leading axis.  The state may be any real or complex ndarray; the error
norm is one RMS over all elements of the batch, so members share one
step sequence and the tolerance bounds that RMS, not each member's own
error: one member may exceed it by up to the square root of the number
of elements.

There is one stage loop, :func:`solve_to`; its step control (clamping,
budget and underflow checks, accept/reject and growth, sampling) lives
in :class:`_StepControl`.  The isolated and open legs of a sweep are
two blocks of members of one batch, so they take one step sequence
together.

The method is the 8th-order Dormand-Prince pair with the combined
5th/3rd-order error estimate, chosen because the sweep trajectories are
long (up to 1e5 oscillation-resolved time units) and high order keeps
the step count affordable at tolerances around 1e-10.
"""

from __future__ import annotations

import math
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

# Stage weights as (1, i) rows: each stage sum is the (1, i) @ (i, M) np.dot
# on the flat view of the stage stack that np.tensordot would make and call.
_A_ROWS = [tab.A[i, :i].reshape(1, i) for i in range(tab.N_STAGES)]
_B_ROW = tab.B.reshape(1, -1)
_E5_ROW = tab.E5.reshape(1, -1)
_E3_ROW = tab.E3.reshape(1, -1)
_C = tab.C.tolist()


def _error_norm(err5, err3, h):
    # Combined 5th/3rd-order estimate; the 3rd-order term damps
    # overcautious rejections on smooth stretches.
    err5_sq = np.vdot(err5, err5).real
    err3_sq = np.vdot(err3, err3).real
    if err5_sq == 0.0 and err3_sq == 0.0:
        return 0.0
    denom = err5_sq + 0.01 * err3_sq
    return abs(h) * err5_sq / np.sqrt(denom * err5.size)


def _initial_step(rhs, t0, y0, f0, max_step, rtol, atol):
    """Hairer's starting-step heuristic for an order-8 method."""
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.real(np.vdot(y0 / scale, y0 / scale)) / y0.size)
    d1 = np.sqrt(np.real(np.vdot(f0 / scale, f0 / scale)) / y0.size)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    diff = (rhs(t0 + h0, y0 + h0 * f0) - f0) / scale
    d2 = np.sqrt(np.real(np.vdot(diff, diff)) / y0.size) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, max_step)


class _StepControl:
    """Step control of one propagation from ``t0`` to ``t1``.

    Holds the sample targets and the samples taken, the time, the
    proposed step and the step count; :meth:`attempt` clamps the next
    attempt and :meth:`settle` accepts or rejects it by its error norm.
    """

    def __init__(self, t0, t1, y0, settings: IntegratorSettings, t_samples):
        if not t1 > t0:
            raise ValueError("require t1 > t0")
        self.settings = settings
        self.targets = [float(t1)]
        self.ts: list[float] = []
        self.ys: list[np.ndarray] = []
        if t_samples is not None:
            interior = [float(s) for s in np.atleast_1d(t_samples) if t0 < s < t1]
            self.targets = sorted(set(interior)) + self.targets
            for s in np.atleast_1d(t_samples):
                if s <= t0:
                    self.ts.append(float(s))
                    self.ys.append(y0.copy())
        self.t = float(t0)
        self.h = math.nan  # set from the starting-step heuristic
        self.n_steps = 0
        self.target_idx = 0
        self.done = False

    def attempt(self) -> float:
        """Length of the next attempt, clamped to ``max_step`` and the next target.

        Raises :class:`IntegrationFailure` when the step size underflows
        or the step budget is exhausted, carrying the last good time.
        """
        t, h = self.t, self.h
        if self.n_steps >= self.settings.max_steps:
            raise IntegrationFailure("step budget exhausted", t_last=t)
        min_step = 10.0 * abs(np.nextafter(t, np.inf) - t)
        if not h >= min_step:  # also catches a NaN step
            raise IntegrationFailure("step size underflow", t_last=t)
        # clamp the attempt, not the proposal, so landing on a sample
        # time does not collapse the step size afterwards
        t_goal = self.targets[self.target_idx]
        h_try = min(h, self.settings.max_step)
        self.clipped = t + h_try >= t_goal
        if self.clipped:
            h_try = t_goal - t
        self.h_try = h_try
        self.t_new = t_goal if self.clipped else t + h_try
        return h_try

    def settle(self, err) -> bool:
        """Accept or reject the attempt by its error norm; True when accepted."""
        self.n_steps += 1
        h_try = self.h_try
        if not np.isfinite(err):
            self.h = h_try * MIN_FACTOR
            return False
        if err > 1.0:
            self.h = h_try * max(MIN_FACTOR, SAFETY * err**tab.ERROR_EXPONENT)
            return False
        self.t = self.t_new
        factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**tab.ERROR_EXPONENT)
        grown = h_try * max(MIN_FACTOR, factor)
        self.h = max(self.h, grown) if self.clipped else grown
        return True

    def sample(self, y) -> None:
        """Record the state of an accepted step that landed on a target."""
        if self.clipped:
            self.ts.append(self.t)
            self.ys.append(y.copy())
            self.target_idx += 1
            self.done = self.target_idx == len(self.targets)


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
    y = np.array(y0, copy=True)
    step = _StepControl(t0, t1, y, settings, t_samples)
    rtol, atol = settings.rtol, settings.atol
    shape = y.shape

    f = rhs(step.t, y)
    step.h = _initial_step(rhs, step.t, y, f, settings.max_step, rtol, atol)

    k_stack = np.empty((tab.N_STAGES + 1,) + shape, dtype=y.dtype)
    k_flat = k_stack.reshape(tab.N_STAGES + 1, -1)
    while not step.done:
        t, h_try = step.t, step.attempt()
        k_stack[0] = f
        for i in range(1, tab.N_STAGES):
            # y + h_try * dy, built in the fresh product
            dy = np.dot(_A_ROWS[i], k_flat[:i]).reshape(shape)
            dy *= h_try
            dy += y
            k_stack[i] = rhs(t + _C[i] * h_try, dy)
        y_new = y + h_try * np.dot(_B_ROW, k_flat[: tab.N_STAGES]).reshape(shape)
        f_new = rhs(step.t_new, y_new)
        k_stack[tab.N_STAGES] = f_new

        # scaled 5th- and 3rd-order error estimates, each of shape (1, M)
        scale = (atol + rtol * np.maximum(np.abs(y), np.abs(y_new))).reshape(1, -1)
        err5, err3 = np.dot(_E5_ROW, k_flat) / scale, np.dot(_E3_ROW, k_flat) / scale
        if step.settle(_error_norm(err5, err3, h_try)):
            y, f = y_new, f_new
            step.sample(y)

    return np.asarray(step.ts), np.stack(step.ys)

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

Each stage state is one ``np.dot``.  The loop allocates one stack of
``N_STAGES + 2`` rows per call: ``k_12 ... k_0`` in reverse (stage
``k_j`` in row ``12 - j``), then ``y`` in the last row.  Stage ``i``
needs ``k_{i-1} ... k_0`` and ``y``, a contiguous suffix of the stack,
so ``y + h sum_j a_ij k_j`` is the dot of that suffix with a weight row
holding ``h a_ij`` and a final 1; ``y_new`` is the same dot with the
``B`` row.  ``y`` comes last so that the increments are summed before
it is added: with ``y`` first, each partial sum would round at
``eps |y|``, and the structured excess drifts several times further
from a long-double run.  The weights are scaled by ``h`` once per
attempt.  Every stage state, and ``y_new``, is built in one buffer and
handed to the right-hand side, whose result is copied into the stack at
once, so a result aliasing its argument is safe.  The first-same-as-last
evaluation has its own row (``k_12``); it moves into ``k_0``'s row, and
``y_new`` into ``y``'s, only when the step is accepted.  ``|y|`` of an
accepted step is carried into the next error scale.  The 5th- and
3rd-order error sums are two dots over the contiguous ``k_12 ... k_0``
with reversed weight rows: ``np.dot`` would copy a reversed view of the
stack, and one fused (2, 13) dot changes the bits under OpenBLAS.

A propagation may carry an exact sub-flow, ``settings.subflow``: after
each accepted step, and before the step is sampled, it is called once
as ``subflow(t_n, t_{n+1}, y)``; never on a rejection.  It may update
``y`` in place, or state of its own that the right-hand side reads.
The structured bath does the latter: the stages carry only the system
columns of the covariance, and the sub-flow advances the chain block
beside them and refreshes the chain's forcing of those columns
(:func:`critquench.moments.chain_flow`).  The first-same-as-last
``k_0`` of the next step was evaluated before the sub-flow ran, so it
carries the chain block the stages saw, not the updated one.  That
staleness is far below 1e-10 relative: on ``ohmic_critical`` at
``tau_q = 100``, with every step pinned at half the cap (rtol 1e-6),
re-evaluating ``k_0`` after the sub-flow left the excess the same bit
for bit (measured while the chain block was still part of ``y``).

The method is the 8th-order Dormand-Prince pair with the combined
5th/3rd-order error estimate, chosen because the sweep trajectories are
long (up to 1e5 oscillation-resolved time units) and high order keeps
the step count affordable at tolerances around 1e-10.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _rk_tableau as tab
from .errors import IntegrationFailure

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


@dataclass(frozen=True)
class IntegratorSettings:
    """Error-control contract for one propagation.

    ``subflow``, when set, is the exact sub-flow :func:`solve_to` runs
    after each accepted step (see the module docstring).
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = np.inf
    max_steps: int = 50_000_000
    subflow: Callable[[float, float, np.ndarray], None] | None = None

    def __post_init__(self):
        if not (0.0 < self.rtol < np.inf and 0.0 < self.atol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")


DEFAULT_SETTINGS = IntegratorSettings()

# Weight rows over the stage stack of solve_to (rows k_12 ... k_0, then y):
# row i (1 <= i < N_STAGES) builds stage state i from its suffix of i + 1
# rows, row N_STAGES builds y_new from the 13-row suffix after k_12.  The
# last column is y's; it is set to 1 after the table is scaled by h.  Each
# sum is the (1, n) @ (n, M) np.dot that np.tensordot would make and call.
_WEIGHTS = np.zeros((tab.N_STAGES + 1, tab.N_STAGES + 2))
_WEIGHTS[:, 1:-1] = np.vstack([tab.A, tab.B])[:, ::-1]
# error weights reversed to the stack's k_12 ... k_0, as contiguous (1, 13) rows
_E5_ROW = tab.E5[::-1].reshape(1, -1).copy()
_E3_ROW = tab.E3[::-1].reshape(1, -1).copy()
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
    y0 = np.asarray(y0)
    subflow = settings.subflow
    step = _StepControl(t0, t1, y0, settings, t_samples)
    rtol, atol = settings.rtol, settings.atol
    shape, last = y0.shape, tab.N_STAGES

    stack = np.empty((last + 2,) + shape, dtype=y0.dtype)
    flat = stack.reshape(last + 2, -1)
    y = stack[last + 1, ...]
    y[...] = y0
    f = rhs(step.t, y)
    step.h = _initial_step(rhs, step.t, y, f, settings.max_step, rtol, atol)
    stack[last] = f  # k_0

    # the weights scaled by the attempt's h; row i's (1, i + 1) weight
    # suffix and the stack suffix it weighs
    coef = np.empty(_WEIGHTS.shape, dtype=y.real.dtype)
    w_rows = [coef[i : i + 1, last + 1 - i :] for i in range(last + 1)]
    k_rows = [flat[last + 1 - i :] for i in range(last + 1)]
    k_all = flat[: last + 1]
    # every stage state and y_new is built in this one buffer
    dy_flat = np.empty((1, flat.shape[1]), dtype=y.dtype)
    dy = dy_flat.reshape(shape)
    abs_y = np.abs(y)
    while not step.done:
        t, h_try = step.t, step.attempt()
        np.multiply(_WEIGHTS, h_try, out=coef)
        coef[:, -1] = 1.0
        for i in range(1, last):
            np.dot(w_rows[i], k_rows[i], out=dy_flat)
            stack[last - i] = rhs(t + _C[i] * h_try, dy)
        np.dot(w_rows[last], k_rows[last], out=dy_flat)  # y_new
        stack[0] = rhs(step.t_new, dy)

        # scaled 5th- and 3rd-order error estimates, each of shape (1, M)
        abs_y_new = np.abs(dy)
        scale = (atol + rtol * np.maximum(abs_y, abs_y_new)).reshape(1, -1)
        err5, err3 = np.dot(_E5_ROW, k_all) / scale, np.dot(_E3_ROW, k_all) / scale
        if step.settle(_error_norm(err5, err3, h_try)):
            y[...] = dy
            if subflow is not None:
                subflow(t, step.t, y)
            stack[last] = stack[0]
            abs_y = abs_y_new
            step.sample(y)

    return np.asarray(step.ts), np.stack(step.ys)

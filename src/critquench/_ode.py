"""Adaptive explicit Runge-Kutta integration on array-valued states.

A single stepper drives every propagation in the package: the
covariance-matrix Lyapunov flow of whole sweep batches, stacked along a
leading axis.  The state may be any real or complex ndarray; the error
norm is one RMS over all elements of the batch, so members share one
step sequence and the tolerance bounds that RMS, not each member's own
error: one member may exceed it by up to the square root of the number
of elements.

There is one stage loop, :func:`solve_legs`, which advances independent
propagations of the same shape (the isolated and open legs of a sweep)
in lockstep: every stage sum and RHS evaluation runs once over all
legs, while each leg keeps its own step control (time, step size, error
norm, accept/reject and growth) through :class:`_StepControl`, so each
leg's trajectory is the one it would have alone.  :func:`solve_to` is
its one-leg call.

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
# stage nodes as an (N, 1, 1) stack, for the (L, 1) time columns of solve_legs
_C_COLS = tab.C.reshape(-1, 1, 1)


def _error_norm(err5, err3, h):
    # Combined 5th/3rd-order estimate; the 3rd-order term damps
    # overcautious rejections on smooth stretches.
    err5_sq = np.vdot(err5, err5).real
    err3_sq = np.vdot(err3, err3).real
    if err5_sq == 0.0 and err3_sq == 0.0:
        return 0.0
    denom = err5_sq + 0.01 * err3_sq
    return abs(h) * err5_sq / np.sqrt(denom * err5.size)


def _initial_probe(y0, f0, rtol, atol):
    """First half of Hairer's heuristic: the trial step ``h0`` and its norms."""
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.real(np.vdot(y0 / scale, y0 / scale)) / y0.size)
    d1 = np.sqrt(np.real(np.vdot(f0 / scale, f0 / scale)) / y0.size)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return h0, d1, scale


def _initial_from_probe(h0, d1, scale, f0, f1, max_step):
    """Second half of the heuristic, from the RHS ``f1`` at the trial step."""
    diff = (f1 - f0) / scale
    d2 = np.sqrt(np.real(np.vdot(diff, diff)) / f0.size) / h0
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
    :func:`solve_legs` keeps one per leg.
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

    This is :func:`solve_legs` with a single leg; ``rhs`` sees a scalar
    time and the state without the legs axis.
    """
    y0 = np.asarray(y0)
    ts, ys = solve_legs(
        lambda t, y: rhs(t[0, 0], y[0, ...])[None], t0, t1, y0[None], [settings], t_samples=t_samples
    )
    return ts, ys[:, 0]


def solve_legs(rhs, t0, t1, y0, settings, t_samples=None):
    """Integrate independent legs, stacked on the leading axis of ``y0``, in lockstep.

    ``settings`` holds one :class:`IntegratorSettings` per leg.  Each
    stage is one ``rhs(t, y)`` call over all legs, with ``t`` an
    ``(L, 1)`` column of per-leg times, and one stage sum over all
    legs; each leg keeps its own time, step size, error norm (over its
    own elements only), accept/reject decision and growth factor.  A
    leg that has reached ``t1`` idles there with a zero step until the
    last leg is done.  Returns ``(ts, ys)`` as :func:`solve_to` does,
    with ys of shape (S, L, ...); raises :class:`IntegrationFailure` as
    soon as any leg fails.

    Every leg follows the step sequence it takes alone (a one-leg call,
    which is what :func:`solve_to` makes), and its arithmetic is the
    same elementwise, so the samples agree bit for bit as long as the
    BLAS ``gemv`` behind the stage sums blocks each leg's elements as it
    would alone.  With OpenBLAS 0.3 (Haswell kernels) that holds when the
    per-leg element count is a multiple of 4, as for every stack of 2x2
    covariances; otherwise a leg may differ from its standalone run in
    the last bit.
    """
    y = np.array(y0, copy=True)
    n_legs = y.shape[0]
    if len(settings) != n_legs:
        raise ValueError(f"need one settings per leg, got {len(settings)} for {n_legs} legs")
    legs = [_StepControl(t0, t1, y[j], s, t_samples) for j, s in enumerate(settings)]
    shape = y.shape
    col = (n_legs,) + (1,) * (y.ndim - 1)  # one value per leg, broadcast over its state
    size = y[0].size
    rtol = np.repeat([s.rtol for s in settings], size).reshape(shape)
    atol = np.repeat([s.atol for s in settings], size).reshape(shape)

    t_col = np.full((n_legs, 1), float(t0))
    f = rhs(t_col, y)
    probes = [_initial_probe(y[j], f[j], s.rtol, s.atol) for j, s in enumerate(settings)]
    h0 = np.array([p[0] for p in probes])
    f1 = rhs(t_col + h0[:, None], y + h0.reshape(col) * f)
    for j, (leg, (h0_j, d1, scale)) in enumerate(zip(legs, probes)):
        leg.h = _initial_from_probe(h0_j, d1, scale, f[j], f1[j], leg.settings.max_step)

    own = [slice(j * size, (j + 1) * size) for j in range(n_legs)]  # each leg's flat elements
    k_stack = np.empty((tab.N_STAGES + 1,) + shape, dtype=y.dtype)
    k_flat = k_stack.reshape(tab.N_STAGES + 1, -1)
    # per-attempt step and time columns, rewritten in place every attempt
    h_col, t_now, t_new = (np.empty((n_legs, 1)) for _ in range(3))
    stage_t = np.empty((tab.N_STAGES, n_legs, 1))
    # each leg's step spread over its whole state: a broadcast (L, 1, ...)
    # product costs more per stage than the copy
    h_rows = np.empty((n_legs, size))
    h_full = h_rows.reshape(shape)
    while not all(leg.done for leg in legs):
        for j, leg in enumerate(legs):
            h_col[j, 0] = 0.0 if leg.done else leg.attempt()
            t_now[j, 0] = leg.t
            t_new[j, 0] = leg.t if leg.done else leg.t_new
        np.multiply(_C_COLS, h_col, out=stage_t)
        stage_t += t_now
        h_rows[...] = h_col
        k_stack[0] = f
        for i in range(1, tab.N_STAGES):
            dy = np.dot(_A_ROWS[i], k_flat[:i]).reshape(shape)
            dy *= h_full
            dy += y
            k_stack[i] = rhs(stage_t[i], dy)
        y_new = y + h_full * np.dot(_B_ROW, k_flat[: tab.N_STAGES]).reshape(shape)
        f_new = rhs(t_new, y_new)
        k_stack[tab.N_STAGES] = f_new

        # scaled 5th- and 3rd-order error estimates, each of shape (1, M)
        scale = (atol + rtol * np.maximum(np.abs(y), np.abs(y_new))).reshape(1, -1)
        err5, err3 = np.dot(_E5_ROW, k_flat) / scale, np.dot(_E3_ROW, k_flat) / scale
        accepted = [
            not leg.done and leg.settle(_error_norm(err5[:, part], err3[:, part], leg.h_try))
            for leg, part in zip(legs, own)
        ]
        if all(accepted):
            y, f = y_new, f_new
        elif any(accepted):
            keep = np.reshape(accepted, col)
            y = np.where(keep, y_new, y)
            f = np.where(keep, f_new, f)
        for j, leg in enumerate(legs):
            if accepted[j]:
                leg.sample(y[j])

    return np.asarray(legs[0].ts), np.stack([np.stack(leg.ys) for leg in legs], axis=1)

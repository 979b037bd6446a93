"""Per-layer counts and times for one sweep, recorded from outside the package.

:class:`Tracer` replaces the module attributes through which the layers
of ``critquench`` call each other, times every call, and restores the
originals on :meth:`Tracer.uninstall`.  The stepper itself is left
alone: the wrapped ``solve_to`` wraps the RHS it is handed, so each RHS
evaluation is counted, timed and its time argument kept.  The step
sequence is then inferred from those evaluation times by
:func:`infer_steps`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from critquench import _rk_tableau, auxbath, moments, sweep

#: RHS calls before the first step: f(t0) and the initial-step probe.
STARTUP_CALLS = 2
#: RHS calls per attempted step: the stages after the first plus f(t_new).
CALLS_PER_STEP = _rk_tableau.N_STAGES
#: relative slack when deciding that an accepted step sat at max_step
PINNED_RTOL = 1e-6


@dataclass(frozen=True)
class StepCounts:
    attempted: int
    accepted: int
    rejected: int
    pinned: int
    #: sum over accepted steps of step length / max_step (0 without a cap)
    cap_share: float


def infer_steps(eval_times, max_step: float) -> StepCounts:
    """Reconstruct the step sequence of one ``solve_to`` call.

    ``eval_times`` lists the time argument of every RHS call in order.
    Each attempt ends with an evaluation at its end point; an attempt
    was rejected when the next attempt does not end later, because a
    retry starts from the same point with a smaller step.  An accepted
    step is pinned when its length equals ``max_step``.
    """
    n_calls = len(eval_times)
    attempted, extra = divmod(n_calls - STARTUP_CALLS, CALLS_PER_STEP)
    if attempted < 1 or extra:
        raise ValueError(f"{n_calls} RHS calls do not match the stepper's call pattern")
    ends = np.asarray(eval_times[STARTUP_CALLS + CALLS_PER_STEP - 1 :: CALLS_PER_STEP])
    accepted_mask = np.ones(attempted, dtype=bool)
    accepted_mask[:-1] = ends[1:] > ends[:-1]
    accepted_ends = ends[accepted_mask]
    starts = np.concatenate(([eval_times[0]], accepted_ends[:-1]))
    lengths = accepted_ends - starts
    pinned, cap_share = 0, 0.0
    if np.isfinite(max_step):
        pinned = int(np.sum(np.abs(lengths - max_step) <= PINNED_RTOL * max_step))
        cap_share = float(np.sum(lengths) / max_step)
    accepted = int(accepted_mask.sum())
    return StepCounts(attempted, accepted, attempted - accepted, pinned, cap_share)


@dataclass
class _Solve:
    layer: str
    leg: str
    max_step: float
    wall_s: float = 0.0
    rhs_s: float = 0.0
    eval_times: list = field(default_factory=list)


class Tracer:
    """Patch, time and count the calls between critquench's layers."""

    def __init__(self):
        self.spans: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.solves: list[_Solve] = []
        self._leg = ("ode", "other")
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def _patch(self, module, name: str, make):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def install(self) -> None:
        self._patch(moments, "solve_to", self._solve_wrapper)
        self._patch(auxbath, "solve_to", self._solve_wrapper)
        self._patch(moments, "propagate_moments_batch", self._moments_wrapper)
        self._patch(auxbath, "propagate_covariance_batch", self._auxbath_wrapper)
        self._patch(auxbath, "build_system", lambda f: self._timed(f, "auxbath.build"))
        self._patch(sweep, "compute_chunk", lambda f: self._timed(f, "sweep.chunk"))
        self._patch(sweep, "fit_power_law", lambda f: self._timed(f, "scaling.fit"))
        self._patch(sweep, "_isolated_leg_cached", self._iso_leg_wrapper)
        self._patch(sweep, "_open_leg", lambda f: self._timed(f, "sweep.open_leg"))
        self._patch(sweep, "_leg_with_row_fallback", self._fallback_wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- wrappers -----------------------------------------------------
    def _timed(self, func, span: str):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.spans[span] += time.perf_counter() - t0
                self.counts[span] += 1

        return wrapper

    def _in_leg(self, func, layer: str, leg_of):
        """Time a propagation and attribute the solves inside it to its leg."""

        def wrapper(*args, **kwargs):
            leg = leg_of(*args, **kwargs)
            outer, self._leg = self._leg, (layer, leg)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.spans[f"{layer}.{leg}.leg"] += time.perf_counter() - t0
                self._leg = outer

        return wrapper

    def _moments_wrapper(self, func):
        def leg_of(tau_q, g_final, r_n, model, kappa, *args, **kwargs):
            return "iso" if np.all(np.asarray(kappa) == 0.0) else "open"

        return self._in_leg(func, "moments", leg_of)

    def _auxbath_wrapper(self, func):
        return self._in_leg(func, "auxbath", lambda *a, **k: "open")

    def _solve_wrapper(self, func):
        def solve_to(rhs, t0, t1, y0, settings=moments.DEFAULT_SETTINGS, t_samples=None):
            record = _Solve(*self._leg, max_step=settings.max_step)
            self.solves.append(record)
            clock = time.perf_counter
            times = record.eval_times

            def counted_rhs(t, y):
                times.append(t)
                c0 = clock()
                out = rhs(t, y)
                record.rhs_s += clock() - c0
                return out

            t_begin = clock()
            try:
                return func(counted_rhs, t0, t1, y0, settings=settings, t_samples=t_samples)
            finally:
                record.wall_s += clock() - t_begin

        return solve_to

    def _iso_leg_wrapper(self, func):
        timed = self._timed(func, "sweep.iso_leg")

        def wrapper(config, taus):
            before = len(self.solves)
            out = timed(config, taus)
            if len(self.solves) == before:
                self.counts["sweep.iso_cache_hits"] += 1
            return out

        return wrapper

    def _fallback_wrapper(self, func):
        def wrapper(config, taus, leg):
            calls = 0

            def counted(cfg, ts):
                nonlocal calls
                calls += 1
                return leg(cfg, ts)

            try:
                return func(config, taus, counted)
            finally:
                self.counts["sweep.fallback_rows"] += max(0, calls - 1)

        return wrapper

    # -- report -------------------------------------------------------
    def metrics(self, sweep_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced sweep, whose wall time is ``sweep_s``."""
        steps = [infer_steps(s.eval_times, s.max_step) for s in self.solves]
        attempted = sum(c.attempted for c in steps)
        accepted = sum(c.accepted for c in steps)
        capped = sum(c.accepted for c, s in zip(steps, self.solves) if np.isfinite(s.max_step))
        out = {
            "ode.steps": attempted,
            "ode.rejected": attempted - accepted,
            "ode.accept_ratio": accepted / attempted if attempted else 0.0,
            "ode.pinned_frac": sum(c.pinned for c in steps) / accepted if accepted else 0.0,
            "ode.cap_ratio": sum(c.cap_share for c in steps) / capped if capped else 0.0,
            "ode.self_s": sum(s.wall_s - s.rhs_s for s in self.solves),
        }
        for layer, leg in (("moments", "iso"), ("moments", "open"), ("auxbath", "open")):
            mine = [s for s in self.solves if (s.layer, s.leg) == (layer, leg)]
            calls = sum(len(s.eval_times) for s in mine)
            rhs_s = sum(s.rhs_s for s in mine)
            out[f"{layer}.{leg}.rhs_calls"] = calls
            out[f"{layer}.{leg}.rhs_us"] = 1e6 * rhs_s / calls if calls else 0.0
            out[f"{layer}.{leg}.leg_s"] = self.spans[f"{layer}.{leg}.leg"]
        out["auxbath.build_s"] = self.spans["auxbath.build"]
        # run_size_crossover propagates its legs directly, without the
        # sweep-level leg functions; its legs are the propagations
        iso_leg = self.spans["sweep.iso_leg"] if self.counts["sweep.iso_leg"] else out["moments.iso.leg_s"]
        open_leg = self.spans["sweep.open_leg"] if self.counts["sweep.open_leg"] else out["moments.open.leg_s"]
        out["sweep.iso_leg_s"] = iso_leg
        out["sweep.open_leg_s"] = open_leg
        out["sweep.chunk_s"] = self.spans["sweep.chunk"]
        out["sweep.fallback_rows"] = self.counts["sweep.fallback_rows"]
        out["sweep.iso_cache_hits"] = self.counts["sweep.iso_cache_hits"]
        out["sweep.self_s"] = sweep_s - iso_leg - open_leg - self.spans["scaling.fit"]
        out["scaling.fit_calls"] = self.counts["scaling.fit"]
        out["scaling.fit_s"] = self.spans["scaling.fit"]
        return out

"""Solver-core checks against closed forms and an external integrator."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from critquench import _ode
from critquench import _rk_tableau as tab
from critquench._ode import (
    MAX_FACTOR,
    MIN_FACTOR,
    SAFETY,
    IntegratorSettings,
    _initial_step,
    solve_to,
)
from critquench.errors import IntegrationFailure


def solve_stops(rhs, stops, y0, settings=IntegratorSettings()):
    """States at each of ``stops`` (the first is the start), one ``solve_to`` per span."""
    ys = [np.array(y0, copy=True)]
    for t0, t1 in zip(stops[:-1], stops[1:]):
        ys.append(solve_to(rhs, t0, t1, ys[-1], settings))
    return np.stack(ys)


class TestClosedForms:
    def test_exponential_decay(self):
        y_end = solve_to(lambda t, y: -y, 0.0, 5.0, np.array([2.0]))
        assert y_end.shape == (1,)
        assert abs(y_end[0] - 2.0 * np.exp(-5.0)) < 1e-11

    def test_harmonic_oscillator(self):
        def rhs(t, y):
            return np.array([y[1], -y[0]])

        y_end = solve_to(rhs, 0.0, 20.0, np.array([1.0, 0.0]))
        assert abs(y_end[0] - np.cos(20.0)) < 1e-9
        assert abs(y_end[1] + np.sin(20.0)) < 1e-9

    def test_time_dependent_coefficient(self):
        # y' = -t y has the Gaussian solution exp(-t^2/2)
        y_end = solve_to(lambda t, y: -t * y, 0.0, 3.0, np.array([1.0]))
        assert abs(y_end[0] - np.exp(-4.5)) < 1e-12

    def test_complex_state(self):
        y_end = solve_to(lambda t, y: 1j * y, 0.0, np.pi, np.array([1.0 + 0.0j]))
        assert abs(y_end[0] + 1.0) < 1e-10

    def test_matrix_state(self):
        # dY/dt = A Y with matrix-shaped Y integrates columns independently
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        y0 = np.eye(2)
        y_end = solve_to(lambda t, y: a @ y, 0.0, 1.0, y0)
        expected = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
        assert np.max(np.abs(y_end - expected)) < 1e-10


class TestBatchedStates:
    def test_batch_matches_scalar_runs(self):
        rates = np.array([0.5, 1.0, 2.0])

        def rhs(t, y):
            return -rates * y

        y_end = solve_to(rhs, 0.0, 4.0, np.ones(3))
        assert np.max(np.abs(y_end - np.exp(-4.0 * rates))) < 1e-11

    def test_identical_members_stay_identical(self):
        def rhs(t, y):
            return np.stack([-y[:, 0], np.cos(t) * np.ones(y.shape[0])], axis=1)

        y_end = solve_to(rhs, 0.0, 7.0, np.zeros((4, 2)) + 1.0)
        for col in range(2):
            assert np.all(y_end[:, col] == y_end[0, col])


class TestSamplingAndControl:
    def test_samples_hit_exactly(self):
        # samples are stops: each span ends exactly on its sample time
        samples = np.array([0.0, 1.3, 2.0, 2.7, 5.0])
        ends = []

        def rhs(t, y):
            ends.append(t)
            return -y

        ys = solve_stops(rhs, samples, np.array([1.0]))
        assert set(samples[1:]) <= set(ends) and max(ends) == 5.0
        assert np.max(np.abs(ys[:, 0] - np.exp(-samples))) < 1e-11

    def test_a_later_span_keeps_the_step(self):
        # spans sharing one step control: the second evaluates f(t0) once,
        # runs no starting-step heuristic and starts from the proposal the
        # first one ended with, clamped to its end
        step = _ode._StepControl(IntegratorSettings())
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        y = solve_to(rhs, 0.0, 2.0, np.array([1.0]), step=step)
        carried, first = step.h, len(calls)
        assert (first - 2) % tab.N_STAGES == 0
        y = solve_to(rhs, 2.0, 2.0 + 0.25 * carried, y, step=step)
        assert len(calls) - first == 1 + tab.N_STAGES and calls[first] == 2.0
        assert step.t == 2.0 + 0.25 * carried and abs(y[0] - np.exp(-step.t)) < 1e-11
        fresh = []
        solve_to(lambda t, y: fresh.append(t) or -y, 2.0, 2.0 + 0.25 * carried, np.exp([-2.0]))
        assert len(fresh) > 1 + tab.N_STAGES  # a fresh control probes its first step

    def test_rejects_sample_times(self):
        with pytest.raises(TypeError):
            solve_to(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), t_samples=[0.5])

    def test_tightening_tolerance_converges(self):
        def rhs(t, y):
            return np.array([np.sin(t) * y[0]])

        y0 = np.array([1.0])
        loose = solve_to(rhs, 0.0, 10.0, y0, IntegratorSettings(rtol=1e-6, atol=1e-8))
        tight = solve_to(rhs, 0.0, 10.0, y0, IntegratorSettings(rtol=1e-12, atol=1e-14))
        exact = np.exp(1.0 - np.cos(10.0))
        assert abs(tight[0] - exact) < abs(loose[0] - exact)
        assert abs(tight[0] - exact) < 1e-11

    def test_max_step_respected(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        solve_to(rhs, 0.0, 1.0, np.array([1.0]), IntegratorSettings(max_step=0.01))
        assert len(calls) > 1000  # 100 steps x 12 stages at least

    def test_step_budget_failure_carries_time(self):
        settings = IntegratorSettings(max_steps=3)
        with pytest.raises(IntegrationFailure) as err:
            solve_to(lambda t, y: -y, 0.0, 1e6, np.array([1.0]), settings)
        assert 0.0 <= err.value.t_last < 1e6

    def test_rejects_invalid_span(self):
        with pytest.raises(ValueError):
            solve_to(lambda t, y: -y, 1.0, 1.0, np.array([1.0]))

    @pytest.mark.parametrize(
        "kwargs",
        [dict(rtol=np.nan), dict(atol=np.nan), dict(rtol=np.inf), dict(atol=np.inf), dict(max_step=np.nan)],
    )
    def test_rejects_non_finite_settings(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorSettings(**kwargs)

    def test_nan_step_fails_at_the_start(self):
        # a NaN right-hand side gives a NaN first step, which must stop the
        # run at once instead of looping at t = 0 until the budget runs out
        settings = IntegratorSettings(max_steps=2000)
        with pytest.raises(IntegrationFailure, match="underflow") as err:
            solve_to(lambda t, y: y * np.nan, 0.0, 1.0, np.array([1.0]), settings)
        assert err.value.t_last == 0.0


class TestBufferAliasing:
    """The stage state is built in a buffer reused across stages and
    steps; a right-hand side may return that very buffer or a view of it."""

    @pytest.mark.parametrize(
        "rhs",
        [lambda t, y: y, lambda t, y: y[...]],
        ids=["argument", "view"],
    )
    def test_growth_returning_the_argument(self, rhs):
        samples = np.linspace(0.0, 2.0, 9)
        y0 = np.array([[1.0, 2.0], [0.5, -1.0]])
        ys = solve_stops(rhs, samples, y0)
        want = np.exp(samples)[:, None, None] * y0
        np.testing.assert_allclose(ys, want, rtol=1e-9, atol=0.0)


class TestAgainstScipy:
    def test_random_linear_system(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5)) * 0.5

        def rhs(t, y):
            return a @ y + np.sin(t) * np.ones(5)

        y0 = rng.normal(size=5)
        mine = solve_to(rhs, 0.0, 6.0, y0)
        ref = solve_ivp(rhs, (0.0, 6.0), y0, method="DOP853", rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(mine - ref.y[:, -1])) < 1e-8


def y_last_sum(weights, k, y, h):
    """``solve_to``'s stage sum: the weights times ``h``, reversed, with 1 for ``y``
    appended, over ``k_{n-1} ... k_0, y``, so the increments add up before ``y``."""
    n = len(weights)
    w = np.append(h * np.asarray(weights)[::-1], 1.0)
    return np.tensordot(w, np.stack([*k[n - 1 :: -1], y]), axes=(0, 0))


def y_first_sum(weights, k, y, h):
    """The textbook stage sum ``y + h tensordot(weights, k)``."""
    return y + h * np.tensordot(weights, k[: len(weights)], axes=(0, 0))


def tensordot_solve_to(rhs, t0, t1, y0, settings=IntegratorSettings(), stage_sum=y_last_sum):
    """Reference stepper: ``solve_to``'s step control with every stage sum
    written as ``np.tensordot`` over the stage axis (no budget checks).

    ``stage_sum(weights, k, y, h)`` builds a stage state and ``y_new``;
    the error estimates are summed over ``k_12 ... k_0`` with reversed
    weights, as ``solve_to`` sums them.  Returns y at ``t1``."""
    rtol, atol = settings.rtol, settings.atol
    y = np.array(y0, copy=True)
    t = float(t0)
    f = rhs(t, y)
    h = _initial_step(rhs, t, y, f, settings.max_step, rtol, atol)
    k = np.empty((tab.N_STAGES + 1,) + y.shape, dtype=y.dtype)
    while t < t1:
        h_try = min(h, settings.max_step)
        clipped = t + h_try >= t1
        if clipped:
            h_try = t1 - t
        k[0] = f
        for i in range(1, tab.N_STAGES):
            k[i] = rhs(t + tab.C[i] * h_try, stage_sum(tab.A[i, :i], k, y, h_try))
        y_new = stage_sum(tab.B, k, y, h_try)
        t_new = t1 if clipped else t + h_try
        f_new = rhs(t_new, y_new)
        k[tab.N_STAGES] = f_new
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = np.tensordot(tab.E5[::-1], k[::-1], axes=(0, 0)) / scale
        err3 = np.tensordot(tab.E3[::-1], k[::-1], axes=(0, 0)) / scale
        err5_sq = np.real(np.vdot(err5, err5))
        err3_sq = np.real(np.vdot(err3, err3))
        if err5_sq == 0.0 and err3_sq == 0.0:
            err = 0.0
        else:
            err = abs(h_try) * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq) * err5.size)
        if not np.isfinite(err):
            h = h_try * MIN_FACTOR
            continue
        if err > 1.0:
            h = h_try * max(MIN_FACTOR, SAFETY * err**tab.ERROR_EXPONENT)
            continue
        t, y, f = t_new, y_new, f_new
        factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**tab.ERROR_EXPONENT)
        h = h_try * max(MIN_FACTOR, factor)
    return y


class TestStageArithmetic:
    """``solve_to`` reproduces the tensordot stage sums, ``y`` added last, bit
    for bit, and stays within 10 rtol of the textbook ``y + h sum a k``."""

    def assert_same_bits(self, rhs, t1, y0, settings=IntegratorSettings(), t0=0.0):
        y = solve_to(rhs, t0, t1, y0, settings=settings)
        ref = tensordot_solve_to(rhs, t0, t1, y0, settings=settings)
        assert y.dtype == ref.dtype and y.shape == ref.shape
        assert y.tobytes() == ref.tobytes()
        old = tensordot_solve_to(rhs, t0, t1, y0, settings=settings, stage_sum=y_first_sum)
        assert np.max(np.abs(y - old)) <= 10.0 * settings.rtol * np.max(np.abs(old))
        return y

    def test_real_matrix_batch(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 2, 2))
        rates = np.linspace(1.0, 3.0, 5)[:, None, None]

        def rhs(t, y):
            m = (np.cos(t) * a) @ y
            return rates * (m + m.swapaxes(-1, -2) + np.eye(2))

        y0 = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
        self.assert_same_bits(rhs, 4.0, y0, settings=IntegratorSettings(rtol=1e-9, atol=1e-11, max_step=0.3))

    def test_complex_state(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        y0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        self.assert_same_bits(lambda t, y: -1j * (h @ y) + np.exp(-t), 3.0, y0)

    def test_scalar_state_with_samples(self):
        # samples are stops: each span is one solve_to from the last sample
        samples = [0.0, 0.4, 1.1, 2.5, 3.0]
        y = np.array(1.5)
        for t0, t1 in zip(samples[:-1], samples[1:]):
            y = self.assert_same_bits(lambda t, y: -np.cos(t) * y, t1, y, t0=t0)
        assert y.shape == ()

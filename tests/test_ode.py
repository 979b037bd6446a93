"""Solver-core checks against closed forms and an external integrator."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from critquench._ode import IntegratorSettings, solve_to
from critquench.errors import IntegrationFailure


class TestClosedForms:
    def test_exponential_decay(self):
        ts, ys = solve_to(lambda t, y: -y, 0.0, 5.0, np.array([2.0]))
        assert ts[-1] == 5.0
        assert abs(ys[-1][0] - 2.0 * np.exp(-5.0)) < 1e-11

    def test_harmonic_oscillator(self):
        def rhs(t, y):
            return np.array([y[1], -y[0]])

        y_end = solve_to(rhs, 0.0, 20.0, np.array([1.0, 0.0]))[1][-1]
        assert abs(y_end[0] - np.cos(20.0)) < 1e-9
        assert abs(y_end[1] + np.sin(20.0)) < 1e-9

    def test_time_dependent_coefficient(self):
        # y' = -t y has the Gaussian solution exp(-t^2/2)
        y_end = solve_to(lambda t, y: -t * y, 0.0, 3.0, np.array([1.0]))[1][-1]
        assert abs(y_end[0] - np.exp(-4.5)) < 1e-12

    def test_complex_state(self):
        y_end = solve_to(lambda t, y: 1j * y, 0.0, np.pi, np.array([1.0 + 0.0j]))[1][-1]
        assert abs(y_end[0] + 1.0) < 1e-10

    def test_matrix_state(self):
        # dY/dt = A Y with matrix-shaped Y integrates columns independently
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        y0 = np.eye(2)
        y_end = solve_to(lambda t, y: a @ y, 0.0, 1.0, y0)[1][-1]
        expected = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
        assert np.max(np.abs(y_end - expected)) < 1e-10


class TestBatchedStates:
    def test_batch_matches_scalar_runs(self):
        rates = np.array([0.5, 1.0, 2.0])

        def rhs(t, y):
            return -rates * y

        y_end = solve_to(rhs, 0.0, 4.0, np.ones(3))[1][-1]
        assert np.max(np.abs(y_end - np.exp(-4.0 * rates))) < 1e-11

    def test_identical_members_stay_identical(self):
        def rhs(t, y):
            return np.stack([-y[:, 0], np.cos(t) * np.ones(y.shape[0])], axis=1)

        y_end = solve_to(rhs, 0.0, 7.0, np.zeros((4, 2)) + 1.0)[1][-1]
        for col in range(2):
            assert np.all(y_end[:, col] == y_end[0, col])


class TestSamplingAndControl:
    def test_samples_hit_exactly(self):
        samples = np.array([0.0, 1.3, 2.0, 2.7, 5.0])
        ts, ys = solve_to(lambda t, y: -y, 0.0, 5.0, np.array([1.0]), t_samples=samples)
        assert np.array_equal(ts, samples)
        assert np.max(np.abs(ys[:, 0] - np.exp(-samples))) < 1e-11

    def test_tightening_tolerance_converges(self):
        def rhs(t, y):
            return np.array([np.sin(t) * y[0]])

        y0 = np.array([1.0])
        loose = solve_to(rhs, 0.0, 10.0, y0, IntegratorSettings(rtol=1e-6, atol=1e-8))[1][-1]
        tight = solve_to(rhs, 0.0, 10.0, y0, IntegratorSettings(rtol=1e-12, atol=1e-14))[1][-1]
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


class TestAgainstScipy:
    def test_random_linear_system(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5)) * 0.5

        def rhs(t, y):
            return a @ y + np.sin(t) * np.ones(5)

        y0 = rng.normal(size=5)
        mine = solve_to(rhs, 0.0, 6.0, y0)[1][-1]
        ref = solve_ivp(rhs, (0.0, 6.0), y0, method="DOP853", rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(mine - ref.y[:, -1])) < 1e-8

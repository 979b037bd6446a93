"""Ramp shapes, monotonicity, and the adiabatic-impulse boundary exponent."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critquench.errors import DomainError
from critquench.protocol import (
    QuenchProtocol,
    impulse_boundary_exponent,
    ramp_profile,
)


class TestCoupling:
    def test_linear_ramp_start(self):
        assert QuenchProtocol(1.0, 100.0, 1.0).coupling(0.0) == 0.0

    def test_linear_ramp_end(self):
        assert QuenchProtocol(1.0, 100.0, 1.0).coupling(100.0) == 1.0

    def test_quadratic_ramp_midpoint(self):
        # g_f (1 - (1 - 1/2)^2) = 0.8 * 0.75
        assert QuenchProtocol(0.8, 10.0, 2.0).coupling(5.0) == pytest.approx(0.6, abs=1e-15)

    def test_endpoints_exact_for_all_shapes(self):
        for r_n in (0.5, 1.0, 1.25, 2.0, 7.3):
            p = QuenchProtocol(0.9, 123.0, r_n)
            assert p.coupling(0.0) == 0.0
            assert p.coupling(123.0) == 0.9

    def test_linear_is_exact_ratio(self):
        p = QuenchProtocol(1.0, 3.0)
        for t in np.linspace(0.0, 3.0, 17):
            assert p.coupling(float(t)) == t / 3.0

    def test_vectorized_matches_scalar(self):
        p = QuenchProtocol(0.7, 50.0, 1.5)
        ts = np.linspace(0.0, 50.0, 11)
        np.testing.assert_array_equal(p.coupling(ts), [p.coupling(float(t)) for t in ts])

    def test_out_of_range_time_rejected(self):
        p = QuenchProtocol(1.0, 10.0)
        with pytest.raises(DomainError):
            p.coupling(-1e-9)
        with pytest.raises(DomainError):
            p.coupling(10.0 + 1e-9)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(g_final=-0.1, tau_q=1.0),
            dict(g_final=1.1, tau_q=1.0),
            dict(g_final=0.5, tau_q=0.0),
            dict(g_final=0.5, tau_q=-2.0),
            dict(g_final=0.5, tau_q=1.0, r_n=0.0),
            dict(g_final=0.5, tau_q=1.0, r_n=-1.0),
            dict(g_final=0.5, tau_q=math.inf),
            dict(g_final=0.5, tau_q=1.0, r_n=math.inf),
        ],
    )
    def test_invalid_protocols_rejected(self, kwargs):
        with pytest.raises(DomainError):
            QuenchProtocol(**kwargs)


class TestMonotonicityAndContinuity:
    @given(
        g_final=st.floats(0.0, 1.0),
        tau_q=st.floats(1e-3, 1e6),
        r_n=st.floats(0.05, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing(self, g_final, tau_q, r_n):
        p = QuenchProtocol(g_final, tau_q, r_n)
        g = p.coupling(np.linspace(0.0, tau_q, 257))
        assert np.all(np.diff(g) >= -1e-15 * max(g_final, 1.0))

    def test_continuity_by_dense_sampling(self):
        p = QuenchProtocol(1.0, 1.0, 0.5)
        ts = np.linspace(0.0, 1.0, 200001)
        g = p.coupling(ts)
        # steepest stretch is the square-root approach to the endpoint
        assert np.max(np.abs(np.diff(g))) < 3e-3

    def test_linear_and_generic_paths_agree(self):
        # the r_n = 1 short circuit and the generic power form may differ
        # only at the rounding level of the output scale
        s = np.linspace(0.0, 1.0, 10_001)
        base = np.maximum(1.0 - s, 0.0)
        generic = 1.0 - np.power(base, 1.0 + 0.0)
        exact = ramp_profile(1.0)(s)
        assert np.max(np.abs(generic - exact)) <= 4.0 * math.ulp(1.0)


class TestImpulseBoundaryExponent:
    def test_mean_field_linear(self):
        assert impulse_boundary_exponent(0.5, 1.0) == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_steep_ramp_limit(self):
        assert impulse_boundary_exponent(0.5, 1e6) == pytest.approx(-2.0, abs=1e-5)

    def test_unit_exponents(self):
        assert impulse_boundary_exponent(1.0, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            impulse_boundary_exponent(0.0, 1.0)
        with pytest.raises(DomainError):
            impulse_boundary_exponent(0.5, -1.0)

    def test_non_finite_ramp_exponent_rejected(self):
        # r_n = inf would return -inf / inf = nan
        with pytest.raises(DomainError, match="finite"):
            impulse_boundary_exponent(0.5, math.inf)

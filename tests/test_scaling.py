"""Power-law fitting and the exponent predictions it is compared against."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critquench.errors import (
    DomainError,
    InsufficientDataError,
    NonLoggableDataError,
    RegimeError,
)
from critquench.model import MEAN_FIELD
from critquench.scaling import (
    Regime,
    fit_power_law,
    fit_report_lines,
    inflection_time,
    inflection_time_ratio_form,
    kz_akz_tradeoff,
    optimal_quench_time,
    predict_regime,
    predicted_akz_exponent,
)


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        taus = np.geomspace(1.0, 1e4, 10)
        fit = fit_power_law(taus, 3.0 * taus**0.8)
        assert fit.amplitude == pytest.approx(3.0, abs=1e-10)
        assert fit.exponent == pytest.approx(0.8, abs=1e-10)
        assert fit.stderr_b < 1e-12
        assert fit.residual_rms < 1e-12

    def test_constant_data(self):
        taus = np.geomspace(1.0, 100.0, 8)
        fit = fit_power_law(taus, np.full(8, 5.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-14)
        assert fit.stderr_b == pytest.approx(0.0, abs=1e-13)
        assert fit.amplitude == pytest.approx(5.0, rel=1e-12)

    def test_window_restricts_points(self):
        taus = np.geomspace(1.0, 1e4, 20)
        values = 2.0 * taus**0.5
        values[:5] *= 10.0  # corrupt points outside the window
        fit = fit_power_law(taus, values, window=(10.0, 1e4))
        assert fit.exponent == pytest.approx(0.5, abs=1e-6)
        assert fit.n_points == int(np.sum(taus >= 10.0))

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([1.0, 10.0], [1.0, 2.0])

    def test_nonpositive_values_inside_window_rejected(self):
        taus = np.geomspace(1.0, 100.0, 8)
        values = taus.copy()
        values[1] = -1.0
        with pytest.raises(NonLoggableDataError):
            fit_power_law(taus, values)
        # the same offending point excluded by the window is fine
        fit = fit_power_law(taus, values, window=(taus[2] * 0.99, 100.0))
        assert fit.n_points == 6
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)

    def test_bad_window(self):
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], window=(5.0, 1.0))

    @given(scale=st.floats(1e-6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_value_scale_equivariance(self, scale):
        taus = np.geomspace(1.0, 1e3, 9)
        values = 2.0 * taus**1.3
        base = fit_power_law(taus, values)
        scaled = fit_power_law(taus, scale * values)
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)
        assert scaled.amplitude == pytest.approx(scale * base.amplitude, rel=1e-9)

    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_time_scale_leaves_exponent(self, scale):
        taus = np.geomspace(1.0, 1e3, 9)
        values = 2.0 * taus**-0.7
        base = fit_power_law(taus, values)
        scaled = fit_power_law(scale * taus, values)
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-12)


class TestPredictions:
    def test_linear_universal_values(self):
        expected = {
            "e_r": Fraction(2, 3),
            "dp": Fraction(5, 6),
            "n": Fraction(4, 3),
            "dx": Fraction(7, 6),
        }
        for obs, value in expected.items():
            pred = predicted_akz_exponent(MEAN_FIELD, obs, r_n=1)
            assert pred.exponent == value
            assert pred.regime is Regime.AKZ_CRITICAL

    def test_sqrt_ramp_values(self):
        assert predicted_akz_exponent(MEAN_FIELD, "e_r", r_n=0.5).exponent == Fraction(4, 5)
        assert predicted_akz_exponent(MEAN_FIELD, "dp", r_n=0.5).exponent == Fraction(9, 10)

    def test_54_ramp_values(self):
        expected = {
            "e_r": Fraction(8, 13),
            "dp": Fraction(21, 26),
            "n": Fraction(18, 13),
            "dx": Fraction(31, 26),
        }
        for obs, value in expected.items():
            assert predicted_akz_exponent(MEAN_FIELD, obs, r_n=1.25).exponent == value

    def test_quadratic_ramp_printed_forms(self):
        # occupation follows (2 r + 2)/(r + 2)
        pred = predicted_akz_exponent(MEAN_FIELD, "n", r_n=2)
        assert pred.exponent == Fraction(6, 4)

    def test_off_critical_linear(self):
        pred = predicted_akz_exponent(MEAN_FIELD, "dx", r_n=3, at_critical=False)
        assert pred.exponent == Fraction(1)
        assert pred.regime is Regime.AKZ_LINEAR

    def test_monotone_in_ramp_exponent(self):
        # positive gamma: exponent decreases with r_n; negative: increases
        rs = [Fraction(1, 2), 1, 2, 4]
        er = [predicted_akz_exponent(MEAN_FIELD, "e_r", r).exponent for r in rs]
        assert all(a > b for a, b in zip(er, er[1:]))
        nn = [predicted_akz_exponent(MEAN_FIELD, "n", r).exponent for r in rs]
        assert all(a < b for a, b in zip(nn, nn[1:]))

    def test_regime_dispatch(self):
        assert predict_regime("e_r", critical=True, isolated=True).exponent == Fraction(-1, 3)
        assert predict_regime("e_r", critical=False, isolated=True).exponent == Fraction(-2)
        assert predict_regime("e_r", critical=True, isolated=False).exponent == Fraction(2, 3)
        assert predict_regime("e_r", critical=False, isolated=False).exponent == Fraction(1)

    def test_isolated_nonlinear_boundary_scaling(self):
        # -gamma r / (z nu r + 1) at r = 2 for the residual energy
        pred = predict_regime("e_r", critical=True, isolated=True, r_n=2)
        assert pred.exponent == Fraction(-1, 2)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            predicted_akz_exponent(MEAN_FIELD, "e_r", r_n=0)
        with pytest.raises(KeyError):
            predicted_akz_exponent(MEAN_FIELD, "entropy")


class TestOptimalQuenchTime:
    def test_direct_substitution(self):
        assert optimal_quench_time(1.0, 1.0, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force_minimization(self):
        # oracle: golden-section search on the tradeoff curve itself
        from scipy.optimize import minimize_scalar

        z_nu = 0.5
        for r_c in np.geomspace(0.01, 100.0, 10):
            for r_o in np.geomspace(0.01, 100.0, 10):
                for gamma in np.linspace(0.1, 1.4, 5):
                    tau_opt = optimal_quench_time(r_c, r_o, gamma, z_nu)
                    res = minimize_scalar(
                        lambda tau: kz_akz_tradeoff(tau, r_c, r_o, gamma, z_nu),
                        bracket=(tau_opt / 100.0, tau_opt, tau_opt * 100.0),
                        method="golden",
                        options={"xtol": 1e-12},
                    )
                    assert res.x == pytest.approx(tau_opt, rel=1e-6)

    def test_doubling_open_rate_halves_optimum(self):
        t1 = optimal_quench_time(2.0, 1.0, 0.5, 0.5)
        t2 = optimal_quench_time(2.0, 2.0, 0.5, 0.5)
        assert t1 == pytest.approx(2.0 * t2, rel=1e-14)

    def test_regime_errors_name_alternative(self):
        with pytest.raises(RegimeError, match="inflection"):
            optimal_quench_time(1.0, 1.0, -0.5, 0.5)
        with pytest.raises(RegimeError, match="no interior extremum"):
            optimal_quench_time(1.0, 1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            optimal_quench_time(-1.0, 1.0, 0.5, 0.5)


class TestInflectionTime:
    def test_sign_change_of_numerical_second_derivative(self):
        # oracle: second differences of the tradeoff curve on a dense grid
        r_c, r_o, gamma, z_nu = 1.0, 1.0, -0.5, 0.5
        tau_star = inflection_time(r_c, r_o, gamma, z_nu)
        h = tau_star * 1e-4
        for tau, expected_sign in ((0.2 * tau_star, -1.0), (5.0 * tau_star, 1.0)):
            f = lambda t: kz_akz_tradeoff(t, r_c, r_o, gamma, z_nu)
            second = (f(tau + h) - 2.0 * f(tau) + f(tau - h)) / h**2
            assert math.copysign(1.0, second) == expected_sign
        f = lambda t: kz_akz_tradeoff(t, r_c, r_o, gamma, z_nu)
        second_at_star = (f(tau_star + h) - 2.0 * f(tau_star) + f(tau_star - h)) / h**2
        assert abs(second_at_star) < 1e-6

    def test_proportional_to_rate_ratio(self):
        base = inflection_time(1.0, 1.0, -0.5, 0.5)
        assert inflection_time(3.0, 1.0, -0.5, 0.5) == pytest.approx(3.0 * base, rel=1e-9)
        assert inflection_time(1.0, 2.0, -0.5, 0.5) == pytest.approx(base / 2.0, rel=1e-9)

    def test_ratio_form_matches_numeric(self):
        for gamma in (-0.2, -0.8, -1.3):
            numeric = inflection_time(2.0, 3.0, gamma, 0.5)
            ratio = inflection_time_ratio_form(2.0, 3.0, gamma, 0.5)
            # the product reading rc (1+g+zn)(1-g+zn) / ro of the same
            # printed formula misses the inflection
            product = 2.0 * (1.0 + gamma + 0.5) * (1.0 - gamma + 0.5) / 3.0
            assert numeric == pytest.approx(ratio, rel=1e-9)
            assert abs(numeric - product) > 1e-3 * numeric

    def test_regime_errors(self):
        with pytest.raises(RegimeError, match="minimum"):
            inflection_time(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(RegimeError):
            inflection_time(1.0, 1.0, -3.0, 0.5)


class TestFitReport:
    def test_pass_verdict_and_hash_on_every_line(self):
        taus = np.geomspace(1.0, 1e3, 9)
        fit = fit_power_law(taus, 2.0 * taus ** (2.0 / 3.0))
        pred = predicted_akz_exponent(MEAN_FIELD, "e_r", r_n=1)
        lines = fit_report_lines("e_r", fit, pred, tolerance=0.05, config_hash="deadbeef0123")
        assert any("verdict = PASS" in line for line in lines)
        assert all("cfg=deadbeef0123" in line for line in lines)

    def test_fail_verdict(self):
        taus = np.geomspace(1.0, 1e3, 9)
        fit = fit_power_law(taus, 2.0 * taus**1.0)
        pred = predicted_akz_exponent(MEAN_FIELD, "e_r", r_n=1)
        lines = fit_report_lines("e_r", fit, pred, tolerance=0.05, config_hash="deadbeef0123")
        assert any("verdict = FAIL" in line for line in lines)

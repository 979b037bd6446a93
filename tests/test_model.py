"""Model catalog: drives, gaps, ground-state facts, exponent table."""

import math
from fractions import Fraction

import numpy as np
import pytest

from critquench.errors import DomainError
from critquench.model import (
    MEAN_FIELD,
    CriticalExponents,
    ModelKind,
    ModelSpec,
    QRM_QUARTIC_COEFF_NORMAL_ORDERED,
    excitation_gap,
    gap,
    ground_state_energy,
    ground_state_moments,
    predicted_kz_exponent,
    quadratic_coefficients,
)

from helpers_fock import fock_expectations, fock_ground_state


def drive(model, g):
    """The drive G of the moment equations: -2 lam of the quadratic form."""
    return -2.0 * quadratic_coefficients(model, g)[1]


class TestEffectiveDrive:
    def test_thermodynamic_at_critical(self):
        assert drive(ModelSpec(), 1.0) == 0.5

    def test_qrm_infinite_size_matches(self):
        m = ModelSpec(kind=ModelKind.QRM, eta=math.inf)
        assert drive(m, 1.0) == 0.5

    def test_qrm_finite_size_correction(self):
        m = ModelSpec(kind=ModelKind.QRM, eta=100.0)
        assert drive(m, 1.0) == pytest.approx(0.38, abs=1e-15)

    def test_qrm_normal_ordered_variant(self):
        m = ModelSpec(
            kind=ModelKind.QRM, eta=100.0, qrm_quartic_coeff=QRM_QUARTIC_COEFF_NORMAL_ORDERED
        )
        assert drive(m, 1.0) == pytest.approx(0.5 - 0.75 / 100.0, abs=1e-15)

    def test_monotone_in_inverse_size(self):
        drives = [
            drive(ModelSpec(kind=ModelKind.QRM, eta=eta), 0.9)
            for eta in (10.0, 100.0, 1e3, 1e4, math.inf)
        ]
        assert drives == sorted(drives)
        assert drives[-1] == drive(ModelSpec(), 0.9)

    def test_domain(self):
        # the coefficients themselves are unvalidated (hot path); the
        # public gap of the same quadratic form checks the coupling
        with pytest.raises(DomainError):
            excitation_gap(ModelSpec(), 1.2)
        with pytest.raises(DomainError):
            excitation_gap(ModelSpec(kind=ModelKind.QRM, eta=100.0), -0.1)


class TestGapAndEnergy:
    def test_uncoupled_oscillator(self):
        assert gap(1.0, 0.0, 1) == 1.0

    def test_critical_closing(self):
        assert gap(1.0, 1.0, 5) == 0.0

    def test_direct_substitution(self):
        assert gap(2.0, 0.6, 2) == pytest.approx(3.2, abs=1e-14)

    def test_equal_spacing(self):
        for k in range(7):
            assert gap(1.3, 0.4, k) == pytest.approx(k * gap(1.3, 0.4, 1), abs=1e-14)

    def test_ground_state_energy_values(self):
        assert ground_state_energy(1.0, 0.0) == 0.0
        assert ground_state_energy(1.0, 1.0) == -0.5
        assert ground_state_energy(1.0, 0.6) == pytest.approx(-0.1, abs=1e-15)

    def test_finite_size_gap_stays_open(self):
        m = ModelSpec(kind=ModelKind.QRM, eta=1e4)
        assert excitation_gap(m, 1.0) == pytest.approx(math.sqrt(24.0 / 1e4), rel=1e-12)
        assert excitation_gap(ModelSpec(), 1.0) == 0.0


class TestGroundStateMoments:
    def test_vacuum_at_zero_coupling(self):
        st = ground_state_moments(0.0)
        assert st.sigma == 0.5
        assert st.sigma10 == 0.0

    def test_uncertainty_product_is_minimal(self):
        for g in (0.1, 0.5, 0.9, 0.99):
            st = ground_state_moments(g)
            dx = math.sqrt(2.0 * st.sigma - 2.0 * st.sigma10.real)
            dp = math.sqrt(2.0 * st.sigma + 2.0 * st.sigma10.real)
            assert dx * dp == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_scaling(self):
        g = 0.8
        st = ground_state_moments(g)
        dx2 = 2.0 * st.sigma - 2.0 * st.sigma10.real
        assert dx2 == pytest.approx((1.0 - g * g) ** -0.5, rel=1e-12)

    def test_singular_at_critical_point(self):
        with pytest.raises(DomainError):
            ground_state_moments(1.0)

    def test_occupation_against_fock_diagonalization(self):
        # oracle: diagonalize the truncated Hamiltonian and compare <n>
        g = 0.6
        _, vec = fock_ground_state(g, cutoff=200)
        n_fock, x2_fock, p2_fock = fock_expectations(vec)
        expected = math.sinh(0.25 * math.log(1.0 - g * g)) ** 2
        assert n_fock == pytest.approx(expected, abs=1e-8)
        st = ground_state_moments(g)
        assert st.n == pytest.approx(n_fock, abs=1e-8)
        assert 2.0 * st.sigma - 2.0 * st.sigma10.real == pytest.approx(x2_fock, abs=1e-8)
        assert 2.0 * st.sigma + 2.0 * st.sigma10.real == pytest.approx(p2_fock, abs=1e-8)

    def test_fock_cutoff_converged(self):
        e200, _ = fock_ground_state(0.6, cutoff=200)
        e400, _ = fock_ground_state(0.6, cutoff=400)
        assert abs(e200 - e400) < 1e-10
        assert e400 == pytest.approx(ground_state_energy(1.0, 0.6), abs=1e-10)


class TestCriticalExponents:
    def test_catalog_values(self):
        assert MEAN_FIELD.z_nu == Fraction(1, 2)
        assert MEAN_FIELD.gamma_of("n") == Fraction(-1, 2)
        assert MEAN_FIELD.gamma_of("dx") == Fraction(-1, 4)
        assert MEAN_FIELD.gamma_of("dp") == Fraction(1, 4)
        assert MEAN_FIELD.gamma_of("e_r") == Fraction(1, 2)
        assert MEAN_FIELD.d == 0

    def test_table_relations_exact(self):
        g = MEAN_FIELD.gamma
        assert g["dp"] == -g["dx"] == -g["n"] / 2
        assert g["e_r"] == MEAN_FIELD.z_nu

    def test_inconsistent_table_rejected(self):
        with pytest.raises(DomainError):
            CriticalExponents(
                gamma={
                    "n": Fraction(-1, 2),
                    "dx": Fraction(-1, 4),
                    "dp": Fraction(1, 2),
                    "e_r": Fraction(1, 2),
                }
            )

    def test_unknown_observable(self):
        with pytest.raises(KeyError):
            MEAN_FIELD.gamma_of("purity")


class TestKzPrediction:
    def test_residual_energy(self):
        assert predicted_kz_exponent(MEAN_FIELD, "e_r") == Fraction(-1, 3)

    def test_momentum_spread(self):
        assert predicted_kz_exponent(MEAN_FIELD, "dp") == Fraction(-1, 6)

    def test_occupation(self):
        assert predicted_kz_exponent(MEAN_FIELD, "n") == Fraction(1, 3)


class TestQuadraticCoefficients:
    def test_all_kinds_agree_at_infinite_size(self):
        g = np.linspace(0.0, 1.0, 7)
        w0, l0 = quadratic_coefficients(ModelSpec(), g)
        for kind in (ModelKind.QRM, ModelKind.LMG):
            w, lam = quadratic_coefficients(ModelSpec(kind=kind, eta=math.inf), g)
            np.testing.assert_allclose(w, w0, atol=1e-15)
            np.testing.assert_allclose(lam, l0, atol=1e-15)

    def test_thermodynamic_gap_consistency(self):
        g = 0.7
        w, lam = quadratic_coefficients(ModelSpec(), g)
        assert math.sqrt(w * w - 4.0 * lam * lam) == pytest.approx(gap(1.0, g, 1), rel=1e-14)

    def test_lmg_coefficients_printed_form(self):
        # drive (g^2 w/2)(1 - 1/(2 eta)) multiplies i(sigma01 - sigma10) in
        # the sigma equation, rotation w g^2 (1/eta - 1) adds to the 2i w
        # term of the sigma10 equation, pump w g^2 (1 - 1/(2 eta))
        # multiplies i sigma there
        g, eta = 0.8, 50.0
        w, lam = quadratic_coefficients(ModelSpec(kind=ModelKind.LMG, eta=eta), g)
        assert -2.0 * lam == pytest.approx(0.5 * g * g * (1.0 - 0.5 / eta), abs=1e-15)
        assert 2.0 * w - 2.0 == pytest.approx(g * g * (1.0 / eta - 1.0), abs=1e-15)
        assert -4.0 * lam == pytest.approx(g * g * (1.0 - 0.5 / eta), abs=1e-15)

    def test_lmg_quadratic_matches_coefficients(self):
        # the same triple at another size and frequency: the LMG pump is
        # twice its drive, and both lose 1/(2 eta) while the rotation
        # loses 1/eta
        g, eta, omega = 0.6, 20.0, 1.5
        w, lam = quadratic_coefficients(
            ModelSpec(kind=ModelKind.LMG, eta=eta, omega=omega), g
        )
        lmg_drive = -2.0 * lam
        pump = -4.0 * lam
        rot = 2.0 * w - 2.0 * omega
        assert pump == pytest.approx(2.0 * lmg_drive, abs=1e-15)
        assert lmg_drive == pytest.approx(0.5 * g * g * omega * (1.0 - 0.5 / eta), abs=1e-15)
        assert rot == pytest.approx(omega * g * g * (1.0 / eta - 1.0), abs=1e-15)

    @pytest.mark.parametrize(
        "model",
        [
            ModelSpec(kind=ModelKind.QRM, eta=100.0),
            ModelSpec(kind=ModelKind.QRM, eta=100.0, qrm_quartic_coeff=QRM_QUARTIC_COEFF_NORMAL_ORDERED),
            ModelSpec(kind=ModelKind.LMG, eta=100.0, omega=1.3),
        ],
        ids=["qrm", "qrm-normal-ordered", "lmg"],
    )
    def test_array_eta_matches_scalar_calls_bitwise(self, model):
        # size sweeps batch many eta in one call; each member must get
        # exactly the coefficients of its own scalar model
        rng = np.random.default_rng(7)
        g = rng.uniform(0.0, 1.0, 400)
        eta = rng.choice([3.0, 10.0, 100.0, 1e3, 1e4, math.inf], g.size)
        w_arr, lam_arr = quadratic_coefficients(model, g, eta=eta)
        for i in range(g.size):
            member = ModelSpec(
                kind=model.kind,
                eta=eta[i],
                omega=model.omega,
                qrm_quartic_coeff=model.qrm_quartic_coeff,
            )
            w, lam = quadratic_coefficients(member, g[i])
            assert w_arr[i] == w and lam_arr[i] == lam


class TestModelSpecValidation:
    def test_thermodynamic_requires_infinite_eta(self):
        with pytest.raises(DomainError):
            ModelSpec(kind=ModelKind.THERMODYNAMIC, eta=100.0)

    def test_positive_parameters(self):
        with pytest.raises(DomainError):
            ModelSpec(kind=ModelKind.QRM, eta=-1.0)
        with pytest.raises(DomainError):
            ModelSpec(omega=0.0)

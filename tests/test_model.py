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
    QRM_QUARTIC_COEFF,
    excitation_gap,
    ground_state_energy,
    ground_state_covariance,
    quadrature_form,
)
from critquench.model import quadrature_coefficients
from critquench.scaling import predict_regime

from helpers_fock import fock_expectations, fock_ground_state


def drive(model, g):
    """The drive G of the thermodynamic and QRM forms: h_qq = w - 2 G."""
    return 0.5 * (model.omega - quadrature_form(model, g)[0])


class TestEffectiveDrive:
    def test_thermodynamic_at_critical(self):
        assert drive(ModelSpec(), 1.0) == 0.5

    def test_qrm_infinite_size_matches(self):
        m = ModelSpec(kind=ModelKind.QRM, eta=math.inf)
        assert drive(m, 1.0) == 0.5

    def test_qrm_finite_size_correction(self):
        m = ModelSpec(kind=ModelKind.QRM, eta=100.0)
        assert drive(m, 1.0) == pytest.approx(0.38, abs=1e-15)

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
        assert excitation_gap(ModelSpec(), 0.0) == 1.0

    def test_critical_closing(self):
        assert excitation_gap(ModelSpec(), 1.0) == 0.0

    def test_direct_substitution(self):
        assert excitation_gap(ModelSpec(omega=2.0), 0.6) == pytest.approx(1.6, abs=1e-14)

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
        np.testing.assert_array_equal(ground_state_covariance(0.0), np.eye(2))

    def test_uncertainty_product_is_minimal(self):
        for g in (0.1, 0.5, 0.9, 0.99):
            v = ground_state_covariance(g)
            assert v[0, 1] == v[1, 0] == 0.0
            assert math.sqrt(v[0, 0]) * math.sqrt(v[1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_scaling(self):
        g = 0.8
        v = ground_state_covariance(g)
        assert v[0, 0] == pytest.approx((1.0 - g * g) ** -0.5, rel=1e-12)
        assert v[1, 1] == pytest.approx((1.0 - g * g) ** 0.5, rel=1e-12)

    def test_singular_at_critical_point(self):
        with pytest.raises(DomainError):
            ground_state_covariance(1.0)

    def test_occupation_against_fock_diagonalization(self):
        # oracle: diagonalize the truncated Hamiltonian and compare <n>
        g = 0.6
        _, vec = fock_ground_state(g, cutoff=200)
        n_fock, x2_fock, p2_fock = fock_expectations(vec)
        expected = math.sinh(0.25 * math.log(1.0 - g * g)) ** 2
        assert n_fock == pytest.approx(expected, abs=1e-8)
        v = ground_state_covariance(g)
        assert 0.25 * (v[0, 0] + v[1, 1]) - 0.5 == pytest.approx(n_fock, abs=1e-8)
        assert v[0, 0] == pytest.approx(x2_fock, abs=1e-8)
        assert v[1, 1] == pytest.approx(p2_fock, abs=1e-8)

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


def isolated_kz_exponent(observable):
    return predict_regime(observable, critical=True, isolated=True).exponent


class TestKzPrediction:
    def test_residual_energy(self):
        assert isolated_kz_exponent("e_r") == Fraction(-1, 3)

    def test_momentum_spread(self):
        assert isolated_kz_exponent("dp") == Fraction(-1, 6)

    def test_occupation(self):
        assert isolated_kz_exponent("n") == Fraction(1, 3)


def rotating_frame(model, g):
    """(w_tilde, lam) of ``w_tilde a^dag a + lam (a^2 + a^dag^2)``, the same form."""
    h_qq, h_pp = quadrature_form(model, g)
    return 0.5 * (h_qq + h_pp), 0.25 * (h_qq - h_pp)


class TestQuadraticCoefficients:
    def test_all_kinds_agree_at_infinite_size(self):
        g = np.linspace(0.0, 1.0, 7)
        q0, p0 = quadrature_form(ModelSpec(), g)
        for kind in (ModelKind.QRM, ModelKind.LMG):
            h_qq, h_pp = quadrature_form(ModelSpec(kind=kind, eta=math.inf), g)
            np.testing.assert_allclose(h_qq, q0, atol=1e-15)
            np.testing.assert_allclose(h_pp, p0, atol=1e-15)

    def test_thermodynamic_gap_consistency(self):
        g = 0.7
        h_qq, h_pp = quadrature_form(ModelSpec(), g)
        assert h_qq == 1.0 - g * g and h_pp == 1.0
        assert math.sqrt(h_qq * h_pp) == pytest.approx(math.sqrt(1.0 - g * g), rel=1e-14)

    def test_lmg_coefficients_printed_form(self):
        # h_qq = w - g^2 w (1 - 3/(4 eta)), h_pp = w + g^2 w/(4 eta); in the
        # moment equations the drive (g^2 w/2)(1 - 1/(2 eta)) multiplies
        # i(sigma01 - sigma10), the rotation w g^2 (1/eta - 1) adds to the
        # 2i w term of the sigma10 equation and the pump w g^2 (1 - 1/(2 eta))
        # multiplies i sigma there
        g, eta = 0.8, 50.0
        model = ModelSpec(kind=ModelKind.LMG, eta=eta)
        h_qq, h_pp = quadrature_form(model, g)
        assert h_qq == pytest.approx(1.0 - g * g * (1.0 - 0.75 / eta), abs=1e-15)
        assert h_pp == pytest.approx(1.0 + 0.25 * g * g / eta, abs=1e-15)
        w, lam = rotating_frame(model, g)
        assert -2.0 * lam == pytest.approx(0.5 * g * g * (1.0 - 0.5 / eta), abs=1e-15)
        assert 2.0 * w - 2.0 == pytest.approx(g * g * (1.0 / eta - 1.0), abs=1e-15)
        assert -4.0 * lam == pytest.approx(g * g * (1.0 - 0.5 / eta), abs=1e-15)

    def test_lmg_quadratic_matches_coefficients(self):
        # the same triple at another size and frequency: the LMG pump is
        # twice its drive, and both lose 1/(2 eta) while the rotation
        # loses 1/eta
        g, eta, omega = 0.6, 20.0, 1.5
        w, lam = rotating_frame(ModelSpec(kind=ModelKind.LMG, eta=eta, omega=omega), g)
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
            ModelSpec(kind=ModelKind.LMG, eta=100.0, omega=1.3),
        ],
        ids=["qrm", "lmg"],
    )
    def test_array_eta_matches_scalar_calls_bitwise(self, model):
        # size sweeps batch many eta in one call; each member must get
        # exactly the coefficients of its own scalar model
        rng = np.random.default_rng(7)
        g = rng.uniform(0.0, 1.0, 400)
        eta = rng.choice([3.0, 10.0, 100.0, 1e3, 1e4, math.inf], g.size)
        q_arr, p_arr = np.broadcast_arrays(*quadrature_form(model, g, eta=eta))
        for i in range(g.size):
            member = ModelSpec(kind=model.kind, eta=eta[i], omega=model.omega)
            h_qq, h_pp = quadrature_form(member, g[i])
            assert q_arr[i] == h_qq and p_arr[i] == h_pp


def closed_form(model, g, eta):
    """(h_qq, h_pp) as the :func:`quadrature_form` docstring writes them."""
    w = model.omega
    g2w = g * g * w
    if model.kind is ModelKind.LMG:
        return w - g2w * (1.0 - 3.0 / (4.0 * eta)), w + g2w / (4.0 * eta)
    if model.kind is ModelKind.QRM:
        return w - 2.0 * (0.5 * g2w - QRM_QUARTIC_COEFF * g2w * g * g / eta), w + 0.0 * g
    return w - g2w, w + 0.0 * g


class TestCoefficientTable:
    """The coefficient table evaluated at x = g^2 is the printed closed form."""

    @pytest.mark.parametrize(
        "model",
        [
            ModelSpec(),
            ModelSpec(kind=ModelKind.QRM, eta=25.0),
            ModelSpec(kind=ModelKind.QRM, eta=math.inf),
            ModelSpec(kind=ModelKind.LMG, eta=40.0, omega=1.3),
            ModelSpec(kind=ModelKind.LMG, eta=math.inf, omega=0.7),
        ],
        ids=["thermodynamic", "qrm", "qrm-inf", "lmg", "lmg-inf"],
    )
    def test_table_matches_closed_form_within_two_ulp(self, model):
        rng = np.random.default_rng(13)
        g = rng.uniform(0.0, 1.0, 200)
        sizes = [model.eta] if model.kind is ModelKind.THERMODYNAMIC else [model.eta, 3.0, 1e3, math.inf]
        eta_arr = rng.choice(sizes, g.size)
        for eta in (model.eta, eta_arr):
            (a0, a1, a2), (b0, b1) = quadrature_coefficients(model, eta)
            assert np.shape(a0) == np.shape(b1) == np.shape(eta)
            x = g * g
            h_qq, h_pp = a0 + x * (a1 + x * a2), b0 + x * b1
            want_qq, want_pp = closed_form(model, g, eta)
            # the rounding scale of each form is that of its largest term
            scale_qq = model.omega * (1.0 + x + 2.0 * QRM_QUARTIC_COEFF * x * x / eta)
            assert np.all(np.abs(h_qq - want_qq) <= 2.0 * np.spacing(scale_qq))
            assert np.all(np.abs(h_pp - want_pp) <= 2.0 * np.spacing(model.omega * (1.0 + x)))
            # quadrature_form is this table's evaluation
            form = np.broadcast_arrays(*quadrature_form(model, g, eta=eta))
            assert form[0].tobytes() == h_qq.tobytes() and form[1].tobytes() == h_pp.tobytes()


class TestModelSpecValidation:
    def test_thermodynamic_requires_infinite_eta(self):
        with pytest.raises(DomainError):
            ModelSpec(kind=ModelKind.THERMODYNAMIC, eta=100.0)

    def test_positive_parameters(self):
        with pytest.raises(DomainError):
            ModelSpec(kind=ModelKind.QRM, eta=-1.0)
        with pytest.raises(DomainError):
            ModelSpec(omega=0.0)

    def test_kind_text_becomes_the_enum(self):
        # a plain string must select the same form as the enum member
        m = ModelSpec(kind="qrm", eta=100.0)
        assert m.kind is ModelKind.QRM
        assert quadrature_form(m, 1.0)[0] == pytest.approx(0.24, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="bogus"):
            ModelSpec(kind="bogus", eta=1.0)

"""Moment propagation: oracles, invariants, observables, bath physics."""

import math

import numpy as np
import pytest

from critquench import (
    BathSpec,
    IntegratorSettings,
    ModelKind,
    ModelSpec,
    MomentState,
    QuenchProtocol,
    VACUUM,
    delta_observable,
    ground_state_moments,
    integrate,
    moment_rhs,
    observables_from_moments,
    steady_state_moments,
)
from critquench.errors import DomainError, PhysicalityError
from critquench.moments import ISOLATED, _bath_rates, write_trajectory
from critquench.model import THERMODYNAMIC, ground_state_energy

from helpers_fock import propagate_master_equation

TIGHT = IntegratorSettings(rtol=1e-12, atol=1e-14)


class TestBathSpec:
    def test_rates_from_occupation(self):
        # Gamma_a = kappa (n_th + 1)/2 = 0.4 and Gamma_adag = kappa n_th/2 = 0.3
        two_gm, gp = _bath_rates(0.2, 3.0)
        assert two_gm == pytest.approx(2.0 * (0.3 - 0.4), abs=1e-15)
        assert gp == pytest.approx(0.3 + 0.4, abs=1e-15)

    def test_rate_ordering(self):
        # Gamma_a >= Gamma_adag >= 0, i.e. damping and Gamma_+ >= |Gamma_-|
        bath = BathSpec.from_temperature(kappa=1e-3, temperature=10.0)
        two_gm, gp = _bath_rates(bath.kappa, bath.n_th)
        assert two_gm <= 0.0
        assert gp >= -0.5 * two_gm
        assert bath.n_th == pytest.approx(1.0 / math.expm1(0.1), rel=1e-14)

    def test_zero_temperature_short_circuit(self):
        assert BathSpec.from_temperature(1e-3, 0.0).n_th == 0.0

    def test_zero_kappa_kills_rates(self):
        bath = BathSpec(kappa=0.0, n_th=5.0)
        assert _bath_rates(bath.kappa, bath.n_th) == (0.0, 0.0)
        assert bath.is_isolated

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            BathSpec(kappa=-1.0)
        with pytest.raises(DomainError):
            BathSpec(kappa=0.1, n_th=-0.5)
        with pytest.raises(DomainError):
            BathSpec.from_temperature(0.1, -1.0)


class TestMomentRhs:
    def test_vacuum_uncoupled_stationary(self):
        p = QuenchProtocol(g_final=0.0, tau_q=1.0)
        d_sigma, d_s10 = moment_rhs(VACUUM, 0.5, p)
        assert d_sigma == 0.0 and d_s10 == 0.0

    def test_vacuum_thermal_pumping(self):
        p = QuenchProtocol(g_final=0.0, tau_q=1.0)
        bath = BathSpec(kappa=0.01, n_th=3.0)
        d_sigma, d_s10 = moment_rhs(VACUUM, 0.5, p, bath=bath)
        assert d_sigma == pytest.approx(0.01 * 3.0, rel=1e-15)
        assert d_s10 == 0.0

    def test_ground_state_stationary(self):
        # closed-form squeezed state must sit on the frozen-coupling
        # fixed point of the isolated equations
        for g in (0.2, 0.6, 0.9):
            p = QuenchProtocol(g_final=g, tau_q=1.0)
            st = ground_state_moments(g)
            d_sigma, d_s10 = moment_rhs(st, 1.0, p)
            assert abs(d_sigma) < 1e-12
            assert abs(d_s10) < 1e-12


    def test_matches_printed_complex_equations(self):
        # d sigma = 2 G_- sigma + G_+ - 2i lam (sigma01 - sigma10),
        # d sigma10 = (2i w + 2 G_-) sigma10 - 4i lam sigma, at a generic
        # state, finite-size model and time within a longer ramp
        model = ModelSpec(kind=ModelKind.QRM, eta=40.0)
        p = QuenchProtocol(g_final=0.9, tau_q=2.0, r_n=0.5)
        bath = BathSpec(kappa=0.3, n_th=1.5)
        st = MomentState(sigma=0.9, sigma10=0.2 - 0.35j)
        g = p.coupling(1.2)
        drive = 0.5 * g * g - 12.0 * g**4 / 40.0
        w, lam = 1.0 - drive, -0.5 * drive
        gm, gp = 0.5 * 0.3 * 1.5 - 0.5 * 0.3 * 2.5, 0.5 * 0.3 * 1.5 + 0.5 * 0.3 * 2.5
        s10 = st.sigma10
        expect_sigma = 2.0 * gm * st.sigma + gp - 2.0j * lam * (s10.conjugate() - s10)
        expect_s10 = (2.0j * w + 2.0 * gm) * s10 - 4.0j * lam * st.sigma
        d_sigma, d_s10 = moment_rhs(st, 1.2, p, model=model, bath=bath)
        assert d_sigma == pytest.approx(expect_sigma, abs=1e-14)
        assert d_s10 == pytest.approx(expect_s10, abs=1e-14)

    def test_time_outside_ramp_rejected(self):
        with pytest.raises(DomainError):
            moment_rhs(VACUUM, 2.5, QuenchProtocol(g_final=0.5, tau_q=2.0))


class TestIntegrate:
    def test_no_drive_no_bath_keeps_vacuum(self):
        traj = integrate(QuenchProtocol(0.0, 50.0), samples=5)
        assert abs(traj.final.sigma - 0.5) < 1e-12
        assert abs(traj.final.sigma10) < 1e-12

    def test_thermal_fixed_point(self):
        bath = BathSpec(kappa=1e-2, n_th=3.0)
        traj = integrate(QuenchProtocol(0.0, 2000.0), bath=bath, samples=0)
        assert traj.final.n == pytest.approx(3.0, abs=1e-8)

    def test_thermalization_half_life(self):
        kappa = 1e-2
        bath = BathSpec(kappa=kappa, n_th=3.0)
        t_half = math.log(2.0) / kappa
        traj = integrate(QuenchProtocol(0.0, t_half), bath=bath, samples=0)
        assert traj.final.n == pytest.approx(1.5, rel=0.05)

    def test_isolated_kz_ratio(self):
        # residual energy of critical ramps drops as tau^(-1/3)
        results = []
        for tau in (1e3, 1e4):
            traj = integrate(QuenchProtocol(1.0, tau), samples=0)
            rec = observables_from_moments(traj.final, 1.0)
            results.append(rec.residual_energy)
        ratio = results[0] / results[1]
        assert ratio == pytest.approx(10.0 ** (1.0 / 3.0), rel=0.10)

    def test_tolerance_tightening_reproducible(self):
        p = QuenchProtocol(1.0, 200.0)
        bath = BathSpec(kappa=1e-3, n_th=2.0)
        coarse = integrate(p, bath=bath, samples=0).final
        fine = integrate(p, bath=bath, settings=TIGHT, samples=0).final
        assert abs(coarse.sigma - fine.sigma) / fine.sigma < 1e-8
        assert abs(coarse.sigma10 - fine.sigma10) / abs(fine.sigma10) < 1e-8

    def test_saturation_of_open_residual_energy(self):
        # once kappa tau >> 1 a gapped endpoint reaches its steady state
        # and the final excess stops growing with the quench time
        bath = BathSpec.from_temperature(kappa=1e-2, temperature=10.0)
        values = []
        for tau in (1e3, 1e4):
            traj = integrate(QuenchProtocol(0.75, tau), bath=bath, samples=0)
            values.append(observables_from_moments(traj.final, 0.75).residual_energy)
        assert abs(values[1] - values[0]) / values[0] < 0.05


class TestAgainstFockDynamics:
    def test_driven_dissipative_ramp(self):
        # oracle: dense density-matrix propagation of the same master
        # equation in a truncated number basis
        g_f, tau, kappa, n_th = 0.6, 12.0, 0.05, 0.5
        n_ref, x2_ref, p2_ref = propagate_master_equation(g_f, tau, kappa, n_th, cutoff=60)
        traj = integrate(QuenchProtocol(g_f, tau), bath=BathSpec(kappa=kappa, n_th=n_th), samples=0)
        st = traj.final
        assert st.n == pytest.approx(n_ref, abs=1e-8)
        assert 2.0 * st.sigma - 2.0 * st.sigma10.real == pytest.approx(x2_ref, abs=1e-8)
        assert 2.0 * st.sigma + 2.0 * st.sigma10.real == pytest.approx(p2_ref, abs=1e-8)

    def test_isolated_ramp(self):
        g_f, tau = 0.8, 9.0
        n_ref, x2_ref, p2_ref = propagate_master_equation(g_f, tau, 0.0, 0.0, cutoff=60)
        st = integrate(QuenchProtocol(g_f, tau), samples=0).final
        assert st.n == pytest.approx(n_ref, abs=1e-8)
        assert 2.0 * st.sigma - 2.0 * st.sigma10.real == pytest.approx(x2_ref, abs=1e-8)


class TestInvariants:
    @pytest.mark.parametrize("protocol", [
        QuenchProtocol(1.0, 300.0, 1.0),
        QuenchProtocol(0.75, 300.0, 1.0),
        QuenchProtocol(1.0, 300.0, 0.5),
        QuenchProtocol(1.0, 300.0, 2.0),
    ])
    def test_purity_preserved_when_isolated(self, protocol):
        traj = integrate(protocol, samples=61)
        purity = traj.sigma**2 - np.abs(traj.sigma10) ** 2
        assert np.max(np.abs(purity - 0.25)) < 1e-8

    def test_heisenberg_bound_open_dynamics(self):
        bath = BathSpec.from_temperature(kappa=1e-3, temperature=10.0)
        traj = integrate(QuenchProtocol(1.0, 500.0), bath=bath, samples=101)
        _, dx, dp, _, _ = traj.observable_arrays()
        assert np.all(dx * dp >= 1.0 - 1e-9)

    @pytest.mark.parametrize("kind", [ModelKind.QRM, ModelKind.LMG])
    def test_large_size_reduces_to_thermodynamic(self, kind):
        p = QuenchProtocol(1.0, 50.0)
        big = ModelSpec(kind=kind, eta=1e9)
        traj_fs = integrate(p, model=big, samples=11)
        traj_th = integrate(p, samples=11)
        assert np.max(np.abs(traj_fs.sigma - traj_th.sigma)) < 1e-6
        assert np.max(np.abs(traj_fs.sigma10 - traj_th.sigma10)) < 1e-6


class TestObservables:
    def test_vacuum(self):
        rec = observables_from_moments(VACUUM, 0.0)
        assert rec.n == 0.0
        assert rec.dx == 1.0 and rec.dp == 1.0
        assert rec.energy == 0.0 and rec.residual_energy == 0.0

    def test_direct_substitution(self):
        rec = observables_from_moments(MomentState(sigma=3.5, sigma10=0.0j), 0.0)
        assert rec.n == 3.0
        assert rec.dx == pytest.approx(math.sqrt(7.0), rel=1e-15)
        assert rec.dp == pytest.approx(math.sqrt(7.0), rel=1e-15)
        assert rec.energy == pytest.approx(3.0, abs=1e-15)

    def test_ground_state_has_zero_residual_energy(self):
        g = 0.6
        rec = observables_from_moments(ground_state_moments(g), g)
        assert abs(rec.residual_energy) < 1e-10
        assert rec.energy == pytest.approx(ground_state_energy(1.0, g), abs=1e-12)

    def test_small_negative_radicand_clamped(self):
        st = MomentState(sigma=0.5, sigma10=complex(0.5 + 1e-12, 0.0))
        rec = observables_from_moments(st, 0.0)
        assert rec.dx == 0.0

    def test_large_negative_radicand_rejected(self):
        st = MomentState(sigma=0.5, sigma10=complex(0.6, 0.0))
        with pytest.raises(PhysicalityError):
            observables_from_moments(st, 0.0)

    def test_coupling_validated(self):
        with pytest.raises(DomainError):
            observables_from_moments(VACUUM, 1.5)


class TestDeltaObservable:
    def test_isolated_bath_gives_exact_zero(self):
        p = QuenchProtocol(0.8, 30.0)
        result = delta_observable(p, THERMODYNAMIC, BathSpec(kappa=0.0), "e_r")
        assert result.delta == 0.0
        assert result.isolated == result.open

    def test_pre_saturation_excess_doubles_with_tau(self):
        bath = BathSpec.from_temperature(kappa=1e-4, temperature=10.0)
        deltas = []
        for tau in (500.0, 1000.0):
            p = QuenchProtocol(0.75, tau)
            deltas.append(delta_observable(p, THERMODYNAMIC, bath, "e_r").delta)
        assert deltas[1] / deltas[0] == pytest.approx(2.0, rel=0.10)


class TestSteadyState:
    def test_is_fixed_point_of_moment_rhs(self):
        bath = BathSpec(kappa=5e-2, n_th=2.0)
        for g in (0.0, 0.4, 0.9):
            st = steady_state_moments(THERMODYNAMIC, bath, g)
            p = QuenchProtocol(g, 1.0)
            d_sigma, d_s10 = moment_rhs(st, 1.0, p, bath=bath)
            assert abs(d_sigma) < 1e-13 * max(st.sigma, 1.0)
            assert abs(d_s10) < 1e-13 * max(abs(st.sigma10), 1.0)

    def test_matches_long_time_integration(self):
        # the ramped state lags the quasi-static solution by g_dot/kappa,
        # so the endpoint comparison is at that accuracy level only
        bath = BathSpec(kappa=5e-2, n_th=2.0)
        st = steady_state_moments(THERMODYNAMIC, bath, 0.6)
        traj = integrate(QuenchProtocol(0.6, 5000.0), bath=bath, samples=0)
        assert traj.final.sigma == pytest.approx(st.sigma, rel=5e-3)
        assert traj.final.sigma10.real == pytest.approx(st.sigma10.real, abs=5e-3)

    def test_uncoupled_thermal_value(self):
        st = steady_state_moments(THERMODYNAMIC, BathSpec(kappa=1e-3, n_th=3.0), 0.0)
        assert st.sigma == pytest.approx(3.5, rel=1e-12)

    def test_requires_dissipation(self):
        with pytest.raises(DomainError):
            steady_state_moments(THERMODYNAMIC, BathSpec(kappa=0.0), 0.5)


class TestTrajectoryDump:
    def test_roundtrip_tsv(self, tmp_path):
        traj = integrate(QuenchProtocol(0.9, 20.0), bath=BathSpec(kappa=0.01, n_th=1.0), samples=7)
        path = tmp_path / "traj.tsv"
        write_trajectory(path, traj)
        rows = path.read_text().strip().split("\n")
        header = rows[0].split("\t")
        assert header == ["t", "g", "sigma", "re_sigma10", "im_sigma10", "n", "dx", "dp", "e_r"]
        assert len(rows) == 8
        last = [float(v) for v in rows[-1].split("\t")]
        assert last[0] == 20.0
        assert last[2] == traj.final.sigma  # 17 significant digits round-trip

    def test_csv_delimiter(self, tmp_path):
        traj = integrate(QuenchProtocol(0.5, 10.0), samples=3)
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        assert "," in path.read_text().split("\n")[1]

    def test_unknown_extension_rejected(self, tmp_path):
        traj = integrate(QuenchProtocol(0.5, 10.0), samples=3)
        with pytest.raises(ValueError):
            write_trajectory(tmp_path / "traj.dat", traj)

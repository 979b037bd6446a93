"""Auxiliary-oscillator network: construction, Lyapunov flow, physicality."""

import re
from pathlib import Path

import numpy as np
import pytest

from critquench import (
    IntegratorSettings,
    QuenchProtocol,
    auxbath,
    integrate,
    observables_from_covariance,
    steady_state_covariance,
    sweep,
)
from critquench.auxbath import (
    DEFAULT_OHMIC,
    AuxBathParams,
    AuxOscillator,
    assert_physical,
    build_system,
    dump_params,
    load_params,
    ohmic_spectral_density,
    physicality_defect,
    propagate_covariance_batch,
    symplectic_form,
)
from critquench.config import build_config, parse_config_text
from critquench.errors import DomainError, PhysicalityError
from critquench.model import THERMODYNAMIC
from critquench.moments import lyapunov_batch_rhs

TIGHT = IntegratorSettings(rtol=1e-12, atol=1e-14)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def lyapunov_rhs(v, system, g):
    """dV/dt at frozen coupling g, from the batch RHS with B = 1."""
    one = np.array([1.0])
    rhs = lyapunov_batch_rhs(system.drift_base(), system.d_matrix, system.model, one, np.array([g]), one)
    return rhs(1.0, v[None])[0]


def _decoupled(params: AuxBathParams, keep_gamma: bool = True) -> AuxBathParams:
    return AuxBathParams(
        kappa=0.0,
        omega_c=params.omega_c,
        oscillators=tuple(
            AuxOscillator(o.omega, 0.0, o.d, o.gamma if keep_gamma else 0.0)
            for o in params.oscillators
        ),
    )


class TestParams:
    def test_default_table_shape(self):
        assert DEFAULT_OHMIC.n_oscillators == 4
        assert DEFAULT_OHMIC.oscillators[-1].d == 0.0
        assert DEFAULT_OHMIC.kappa == 1e-5
        assert DEFAULT_OHMIC.omega_c == 20.0

    def test_last_oscillator_must_terminate_chain(self):
        with pytest.raises(DomainError):
            AuxBathParams(
                kappa=1e-5,
                omega_c=20.0,
                oscillators=(AuxOscillator(1.0, 0.1, 0.5, 0.1),),
            )

    def test_negative_damping_rejected(self):
        with pytest.raises(DomainError):
            AuxOscillator(1.0, 0.1, 0.0, -0.1)

    def test_nan_scalars_rejected(self):
        osc = (AuxOscillator(1.0, 0.1, 0.0, 0.1),)
        with pytest.raises(DomainError, match="damping"):
            AuxOscillator(1.0, 0.1, 0.0, float("nan"))
        with pytest.raises(DomainError, match="kappa"):
            AuxBathParams(kappa=float("nan"), omega_c=20.0, oscillators=osc)
        with pytest.raises(DomainError, match="omega_c"):
            AuxBathParams(kappa=1e-5, omega_c=float("nan"), oscillators=osc)

    def test_spectral_density_shape(self):
        w = np.linspace(0.1, 100.0, 50)
        j = ohmic_spectral_density(w, kappa=1e-5, omega_c=20.0)
        assert np.all(j > 0.0)
        assert np.argmax(j) == np.argmin(np.abs(w - 20.0))

    def test_params_file_roundtrip(self, tmp_path):
        path = tmp_path / "bath.params"
        dump_params(path, DEFAULT_OHMIC)
        loaded = load_params(path)
        assert loaded == DEFAULT_OHMIC

    def test_params_file_errors(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_text("kappa = 1e-5\n")
        with pytest.raises(DomainError):
            load_params(path)
        path.write_text("kappa = 1e-5\nomega_c = 20\n[oscillator]\nomega = 1\n")
        with pytest.raises(DomainError):
            load_params(path)
        # non-finite numbers are named by file and line, not left to the solver
        block = "[oscillator]\nomega = 1\nc_re = 0.1\nc_im = 0\nd_re = 0\nd_im = 0\n"
        for text, lineno in (
            ("kappa = inf\nomega_c = 20\n" + block + "gamma = 0.1\n", 1),
            ("kappa = 1e-5\nomega_c = -inf\n" + block + "gamma = 0.1\n", 2),
            ("kappa = 1e-5\nomega_c = 20\n" + block + "gamma = nan\n", 9),
        ):
            path.write_text(text)
            with pytest.raises(DomainError, match=re.escape(f"{path}:{lineno}: non-finite")):
                load_params(path)
        # unknown keys are named, not ignored: the chain has no temperature
        good = "kappa = 1e-5\nomega_c = 20\n" + block + "gamma = 0.1\n"
        for text, lineno in (("temperature = 10\n" + good, 1), (good.replace("gamma", "gama"), 9)):
            path.write_text(text)
            with pytest.raises(DomainError, match=re.escape(f"{path}:{lineno}: unknown key")):
                load_params(path)

    def test_repeated_key_rejected(self, tmp_path):
        # a key set twice in one block is an error, not "the last line wins"
        shipped = (CONFIG_DIR / "ohmic_4osc.params").read_text()
        path = tmp_path / "repeated.params"
        for key, line, repeat, lines in (
            ("gamma", "gamma = 11.9298\n", "gamma = 5.0\n", (14, 15)),
            ("kappa", "omega_c = 20\n", "kappa = 2e-5\n", (5, 7)),
        ):
            path.write_text(shipped.replace(line, line + repeat, 1))
            message = f"{path}:{lines[1]}: key {key!r} set more than once (lines {lines[0]} and {lines[1]})"
            with pytest.raises(DomainError, match=re.escape(message)):
                load_params(path)
        # a key repeated across blocks belongs to each oscillator once
        assert load_params(CONFIG_DIR / "ohmic_4osc.params") == DEFAULT_OHMIC


class TestBuildSystem:
    def test_decoupled_system_block_is_single_mode(self):
        params = _decoupled(DEFAULT_OHMIC, keep_gamma=False)
        system = build_system(THERMODYNAMIC, 0.7, params)
        h = system.h_matrix(0.7)
        n = system.n_modes
        assert h[0, 0] == pytest.approx(1.0 - 0.49, abs=1e-15)
        assert h[n, n] == 1.0
        assert np.all(h[0, 1:n] == 0.0) and np.all(h[0, n + 1 :] == 0.0)

    def test_oscillator_frequencies_on_diagonal(self):
        system = build_system(THERMODYNAMIC, 0.0, DEFAULT_OHMIC)
        n = system.n_modes
        wc = DEFAULT_OHMIC.omega_c
        for idx, osc in enumerate(DEFAULT_OHMIC.oscillators):
            assert system.h_base[1 + idx, 1 + idx] == pytest.approx(osc.omega * wc, rel=1e-15)
            assert system.h_base[n + 1 + idx, n + 1 + idx] == pytest.approx(
                osc.omega * wc, rel=1e-15
            )

    def test_symplectic_form_squares_to_minus_identity(self):
        j = symplectic_form(5)
        assert np.array_equal(j @ j, -np.eye(10))

    def test_h_symmetric_and_d_psd(self):
        system = build_system(THERMODYNAMIC, 0.9, DEFAULT_OHMIC)
        h = system.h
        assert np.array_equal(h, h.T)
        eigs = np.linalg.eigvalsh(system.d_matrix)
        assert np.min(eigs) >= -1e-15

    def test_drift_damping_identity_random_params(self):
        # D + i (Gamma J + J Gamma^T) must reproduce 2 Upsilon exactly;
        # the Hamiltonian part cancels out of the antisymmetric combination
        rng = np.random.default_rng(11)
        for _ in range(5):
            oscs = tuple(
                AuxOscillator(
                    omega=float(rng.uniform(0.1, 3.0)),
                    c=complex(rng.normal(), rng.normal()),
                    d=complex(rng.normal(), rng.normal()) if k < 2 else 0.0,
                    gamma=float(rng.uniform(0.0, 2.0)),
                )
                for k in range(3)
            )
            params = AuxBathParams(kappa=1e-3, omega_c=5.0, oscillators=oscs)
            system = build_system(THERMODYNAMIC, float(rng.uniform(0.0, 1.0)), params)
            gamma = system.drift(system.g)
            combo = system.d_matrix + 1j * (gamma @ system.j + system.j @ gamma.T)
            assert np.max(np.abs(combo - 2.0 * system.upsilon)) < 1e-12

    def test_coupling_validated(self):
        with pytest.raises(DomainError):
            build_system(THERMODYNAMIC, 1.5, DEFAULT_OHMIC)


class TestLyapunovRhs:
    def test_vacuum_fixed_point_of_damped_decoupled_chain(self):
        params = _decoupled(DEFAULT_OHMIC)
        system = build_system(THERMODYNAMIC, 0.0, params)
        rhs = lyapunov_rhs(np.eye(system.dim), system, 0.0)
        assert np.max(np.abs(rhs)) < 1e-12

    def test_vacuum_invariant_without_damping(self):
        params = _decoupled(DEFAULT_OHMIC, keep_gamma=False)
        system = build_system(THERMODYNAMIC, 0.0, params)
        rhs = lyapunov_rhs(np.eye(system.dim), system, 0.0)
        assert np.max(np.abs(rhs)) == 0.0

    def test_rhs_symmetric_for_random_input(self):
        rng = np.random.default_rng(3)
        system = build_system(THERMODYNAMIC, 0.5, DEFAULT_OHMIC)
        m = rng.normal(size=(system.dim, system.dim))
        v = m + m.T
        rhs = lyapunov_rhs(v, system, 0.5)
        assert np.array_equal(rhs, rhs.T)


class TestPropagation:
    @pytest.mark.parametrize(
        "protocol",
        [
            QuenchProtocol(1.0, 100.0, 1.0),
            QuenchProtocol(0.75, 100.0, 1.0),
            QuenchProtocol(1.0, 100.0, 0.5),
            QuenchProtocol(1.0, 100.0, 1.25),
            QuenchProtocol(1.0, 100.0, 2.0),
        ],
    )
    def test_decoupled_matches_closed_single_mode(self, protocol):
        params = _decoupled(DEFAULT_OHMIC)
        traj = integrate(protocol, bath=params, samples=0)
        rec = observables_from_covariance(traj.final, protocol.g_final)
        ref = observables_from_covariance(
            integrate(protocol, settings=TIGHT, samples=0).final, protocol.g_final
        )
        assert rec.n == pytest.approx(ref.n, abs=1e-6)
        assert rec.dx == pytest.approx(ref.dx, abs=1e-6)
        assert rec.dp == pytest.approx(ref.dp, abs=1e-6)
        assert rec.residual_energy == pytest.approx(ref.residual_energy, abs=1e-6)

    def test_physicality_preserved_along_driven_damped_run(self):
        traj = integrate(QuenchProtocol(1.0, 50.0), bath=DEFAULT_OHMIC, samples=26)
        for v in traj.vs:
            assert_physical(v, symplectic_form(5), tol=1e-8)

    def test_weak_coupling_occupancy_floor(self):
        # T = 0 structured bath at g = 0 keeps the system at the kappa^2
        # dressing scale; the finite oscillator fit leaks a small
        # absorption flux (about a fifth of the emission rate), so the
        # occupancy drifts linearly at order kappa^2 per hundred periods
        params = DEFAULT_OHMIC
        traj = integrate(QuenchProtocol(0.0, 50.0), bath=params, settings=TIGHT, samples=11)
        n = traj.observable_arrays()[0]
        assert float(n[1]) < 10.0 * params.kappa**2  # t = 5: dressing level
        assert np.max(n) < 100.0 * params.kappa**2  # no runaway over t = 50

    def test_step_halving_reproducible(self):
        p = QuenchProtocol(1.0, 50.0)
        coarse = integrate(p, bath=DEFAULT_OHMIC, samples=0).final
        fine = integrate(p, bath=DEFAULT_OHMIC, settings=TIGHT, samples=0).final
        assert np.max(np.abs(coarse - fine)) / np.max(np.abs(fine)) < 1e-8

    def test_batch_layout(self):
        taus = np.array([20.0, 40.0])
        ss, vs, system = propagate_covariance_batch(taus, 1.0, 1.0, DEFAULT_OHMIC)
        assert vs.shape == (1, 2, system.dim, system.dim)
        # members of different quench times end at different physical times
        with pytest.raises(ValueError, match="one quench time"):
            propagate_covariance_batch(taus, 1.0, 1.0, DEFAULT_OHMIC, s_samples=[0.0, 0.5, 1.0])


class TestStructuredSweep:
    def test_nonlinear_excess_matches_a_tight_run(self, monkeypatch):
        # the isolated and open members share one step sequence, so their
        # step errors cancel in the excess; isolated members run apart on
        # their own steps left these short nonlinear ramps off by ~3e-2
        text = (
            "bath.type = structured\nprotocol.r_n = 1.25\nsweep.tau_min = 10\nsweep.tau_max = 40\n"
            "sweep.points_per_decade = 5\n"
        )

        def excess(extra):
            cfg = build_config(parse_config_text(text + extra))
            iso, opn, errors = sweep.compute_chunk(cfg, sweep.tau_grid(cfg.tau_min, cfg.tau_max, 5))
            assert not errors
            return {obs: opn[obs] - iso[obs] for obs in cfg.observables}

        shipped = excess("")
        radius = auxbath._drift_spectral_radius
        monkeypatch.setattr(auxbath, "_drift_spectral_radius", lambda system: 4.0 * radius(system))
        tight = excess("integrator.rtol = 1e-13\n")
        for obs, delta in tight.items():
            assert delta.size == 4
            assert np.all(np.abs(shipped[obs] - delta) <= 1e-6 * np.abs(delta)), obs


class TestObservables:
    def test_vacuum(self):
        v = np.eye(10)
        rec = observables_from_covariance(v, 0.0)
        assert rec.n == 0.0
        assert rec.dx == 1.0 and rec.dp == 1.0

    def test_direct_substitution(self):
        v = np.eye(10)
        v[0, 0] = 7.0
        v[5, 5] = 7.0
        rec = observables_from_covariance(v, 0.0)
        assert rec.n == pytest.approx(3.0, abs=1e-15)

    def test_moment_mapping_consistency(self):
        # the extractor reads the system block only, the same way for the
        # full chain covariance and for the single mode
        rng = np.random.default_rng(5)
        m = rng.normal(size=(10, 10))
        v = m @ m.T + 10.0 * np.eye(10)
        rec = observables_from_covariance(v, 0.3)
        assert rec.n == pytest.approx((v[0, 0] + v[5, 5]) / 4.0 - 0.5, rel=1e-14)
        assert rec.dx == pytest.approx(np.sqrt(v[0, 0]), rel=1e-14)
        assert rec.dp == pytest.approx(np.sqrt(v[5, 5]), rel=1e-14)
        block = v[np.ix_([0, 5], [0, 5])]
        assert observables_from_covariance(block, 0.3) == rec

    def test_unphysical_covariance_rejected(self):
        v = np.eye(10)
        v[0, 0] = -1.0
        with pytest.raises(PhysicalityError):
            observables_from_covariance(v, 0.0)


class TestSteadyState:
    def test_algebraic_fixed_point(self):
        system = build_system(THERMODYNAMIC, 0.5, DEFAULT_OHMIC)
        v = steady_state_covariance(THERMODYNAMIC, 0.5, system.drift_base(), system.d_matrix)
        resid = lyapunov_rhs(v, system, 0.5)
        assert np.max(np.abs(resid)) < 1e-10
        assert physicality_defect(0.5 * (v + v.T), system.j) > -1e-8

"""Auxiliary-oscillator network: construction, Lyapunov flow, physicality."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from critquench import (
    IntegratorSettings,
    QuenchProtocol,
    _flows,
    auxbath,
    integrate,
    moments,
    observables_from_covariance,
    steady_state_covariance,
    sweep,
)
from critquench._flows import FAR, ChainFrame, MarkovFrame, collocate_to, system_rates
from critquench._ode import _StepControl, solve_to
from critquench.auxbath import (
    DEFAULT_OHMIC,
    AuxBathParams,
    AuxOscillator,
    build_system,
    dump_params,
    load_params,
    ohmic_spectral_density,
    propagate_covariance_batch,
)
from critquench.config import build_config, parse_config_text
from critquench.errors import DomainError, PhysicalityError
from critquench.model import THERMODYNAMIC, ModelKind, ModelSpec
from critquench.moments import (
    lyapunov_batch_rhs,
    physicality_defect,
    set_system_block,
    symplectic_form,
)

TIGHT = IntegratorSettings(rtol=1e-12, atol=1e-14)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def chain_frame():
    """The chain frame of one ``DEFAULT_OHMIC`` member."""
    return ChainFrame(*(term[None] for term in build_system(THERMODYNAMIC, DEFAULT_OHMIC)))


#: each frame's quadrature, built by the frame itself
FRAME_RULES = {
    "chain": lambda: chain_frame().rule,
    "markov": lambda: MarkovFrame(*moments.thermal_bath([1e-3], 0.0)).rule,
}


def network(params: AuxBathParams, g: float, model=THERMODYNAMIC):
    """Drift at coupling g and diffusion of the system + chain network."""
    drift, diffusion = build_system(model, params)
    return set_system_block(drift, model, g), diffusion


def upsilon(params: AuxBathParams, model=THERMODYNAMIC) -> np.ndarray:
    """``sum_k lambda_k lambda_k^dag`` of the jumps ``L_k = sqrt(gamma_k) b_k = lambda_k . J x``."""
    n = params.n_oscillators + 1
    wc = params.omega_c * model.omega
    ups = np.zeros((2 * n, 2 * n), dtype=complex)
    for idx, osc in enumerate(params.oscillators):
        # J x = (p, -q), so lambda . J x = s (q_k + i p_k) = sqrt(gamma) b_k
        s = np.sqrt(osc.gamma * wc / 2.0)
        lam = np.zeros(2 * n, dtype=complex)
        lam[2 * idx + 2], lam[2 * idx + 3] = 1j * s, -s
        ups += np.outer(lam, lam.conj())
    return ups


def hamiltonian(drift: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """H of ``Gamma = J H - Im(Upsilon) J``, recovered as ``-J (Gamma + Im(Upsilon) J)``."""
    j = symplectic_form(drift.shape[-1] // 2)
    return -j @ (drift + np.imag(ups) @ j)


def lyapunov_rhs(v, terms, g, model=THERMODYNAMIC):
    """dV/dt at frozen coupling g, from the batch RHS with B = 1."""
    one = np.array([1.0])
    rhs = lyapunov_batch_rhs(*terms, model, one, np.array([g]), one)
    return rhs(1.0, v[None])[0]


EXCESS_OBSERVABLES = ("n", "dx", "dp", "e_r")


def _final_excess(v, g_final, model):
    """Open minus isolated (n, dx, dp, e_r) of a final (2, 2n, 2n) pair."""
    values = observables_from_covariance(v, g_final, model.omega)
    return {name: float(values[name][1] - values[name][0]) for name in EXCESS_OBSERVABLES}


def structured_excess(params, model, tau, g_final, r_n=1.0, settings=IntegratorSettings()):
    """Excess of one quench as a sweep takes it: one member of the engine,
    its isolated state its own ``U U^T``."""
    one = np.ones(1)
    ramp = (model, tau * one, g_final * one, r_n * one, model.eta * one, settings)
    _, vs, isolated = moments.propagate_batch(*params.lyapunov_terms(model), *ramp)
    iso, opn = (observables_from_covariance(v[-1, 0], g_final, model.omega) for v in (isolated, vs))
    return {name: float(opn[name] - iso[name]) for name in EXCESS_OBSERVABLES}


def full_flow_covariance(params, model, tau, g_final, r_n=1.0, cap_divisor=4.0, dtype=np.longdouble):
    """Final V (2, N, N) of one quench's ``kappa = 0`` and open members from
    ``solve_to`` of the full ``lyapunov_batch_rhs`` on the network as
    :func:`build_system` writes it (no frozen block, no chain frame), with
    drift, diffusion and V in ``dtype``, at rtol 1e-13, atol 1e-15 and
    the full flow's stability cap ``3.5 / radius`` divided by
    ``cap_divisor``."""
    terms = [build_system(model, replace(params, kappa=k)) for k in (0.0, params.kappa)]
    drifts = np.stack([drift for drift, _ in terms])
    rate = auxbath._drift_spectral_radius(np.concatenate([set_system_block(drifts.copy(), model, g) for g in (0.0, 1.0)]))
    settings = IntegratorSettings(rtol=1e-13, atol=1e-15, max_step=3.5 / rate / cap_divisor)
    member = np.ones(2)
    tau_b = float(tau) * member
    diffusion = np.stack([d for _, d in terms]).astype(dtype)
    rhs = lyapunov_batch_rhs(
        drifts.astype(dtype), diffusion, model, tau_b, g_final * member, r_n * member, model.eta * member, tau_b
    )
    v0 = np.broadcast_to(np.eye(drifts.shape[-1], dtype=dtype), drifts.shape).copy()
    return solve_to(rhs, 0.0, float(tau), v0, settings=settings)


def long_double_excess(params, model, tau, g_final, r_n=1.0, cap_divisor=4.0):
    """The excess of :func:`full_flow_covariance` in long double."""
    return _final_excess(full_flow_covariance(params, model, tau, g_final, r_n, cap_divisor), g_final, model)


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
        drift, _ = network(params, 0.7)
        h = hamiltonian(drift, upsilon(params))
        assert h[0, 0] == pytest.approx(1.0 - 0.49, abs=1e-15)
        assert h[1, 1] == 1.0
        assert np.all(h[0, 2:] == 0.0)

    def test_oscillator_frequencies_on_diagonal(self):
        drift, _ = build_system(THERMODYNAMIC, DEFAULT_OHMIC)
        h = hamiltonian(drift, upsilon(DEFAULT_OHMIC))
        wc = DEFAULT_OHMIC.omega_c
        for idx, osc in enumerate(DEFAULT_OHMIC.oscillators):
            q, p = 2 * idx + 2, 2 * idx + 3
            assert h[q, q] == pytest.approx(osc.omega * wc, rel=1e-15)
            assert h[p, p] == pytest.approx(osc.omega * wc, rel=1e-15)

    def test_symplectic_form_squares_to_minus_identity(self):
        j = symplectic_form(5)
        assert np.array_equal(j @ j, -np.eye(10))

    def test_h_symmetric_and_d_psd(self):
        drift, diffusion = network(DEFAULT_OHMIC, 0.9)
        ups = upsilon(DEFAULT_OHMIC)
        h = hamiltonian(drift, ups)
        assert np.array_equal(h, h.T)
        # off the damping diagonal, which holds -gamma w_c / 2 on each
        # oscillator's q_k and p_k, the drift's q rows are H's p rows and
        # its p rows are minus H's q rows
        damping = np.diag(np.real(ups))
        assert np.array_equal((drift + np.diag(damping))[0::2], h[1::2])
        assert np.array_equal((drift + np.diag(damping))[1::2], -h[0::2])
        assert np.all(damping[:2] == 0.0) and np.all(damping[2::2] == damping[3::2])
        assert np.array_equal(diffusion, 2.0 * np.real(ups))
        assert np.min(np.linalg.eigvalsh(diffusion)) >= -1e-15

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
            drift, diffusion = network(params, float(rng.uniform(0.0, 1.0)))
            ups = upsilon(params)
            j = symplectic_form(params.n_oscillators + 1)
            combo = diffusion + 1j * (drift @ j + j @ drift.T)
            assert np.max(np.abs(combo - 2.0 * ups)) < 1e-12
            assert np.min(np.linalg.eigvalsh(combo)) >= -1e-12
            h = hamiltonian(drift, ups)
            assert np.array_equal(h, h.T)


class TestLyapunovRhs:
    def test_vacuum_fixed_point_of_damped_decoupled_chain(self):
        terms = network(_decoupled(DEFAULT_OHMIC), 0.0)
        rhs = lyapunov_rhs(np.eye(terms[0].shape[-1]), terms, 0.0)
        assert np.max(np.abs(rhs)) < 1e-12

    def test_vacuum_invariant_without_damping(self):
        terms = network(_decoupled(DEFAULT_OHMIC, keep_gamma=False), 0.0)
        rhs = lyapunov_rhs(np.eye(terms[0].shape[-1]), terms, 0.0)
        assert np.max(np.abs(rhs)) == 0.0

    def test_rhs_symmetric_for_random_input(self):
        rng = np.random.default_rng(3)
        terms = build_system(THERMODYNAMIC, DEFAULT_OHMIC)
        dim = terms[0].shape[-1]
        m = rng.normal(size=(dim, dim))
        v = m + m.T
        rhs = lyapunov_rhs(v, terms, 0.5)
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
        assert rec["n"] == pytest.approx(ref["n"], abs=1e-6)
        assert rec["dx"] == pytest.approx(ref["dx"], abs=1e-6)
        assert rec["dp"] == pytest.approx(ref["dp"], abs=1e-6)
        assert rec["e_r"] == pytest.approx(ref["e_r"], abs=1e-6)

    def test_physicality_preserved_along_driven_damped_run(self):
        traj = integrate(QuenchProtocol(1.0, 50.0), bath=DEFAULT_OHMIC, samples=26)
        assert np.min(physicality_defect(traj.vs, symplectic_form(5))) >= -1e-8

    def test_weak_coupling_occupancy_floor(self):
        # T = 0 structured bath at g = 0 keeps the system at the kappa^2
        # dressing scale; the finite oscillator fit leaks a small
        # absorption flux (about a fifth of the emission rate), so the
        # occupancy drifts linearly at order kappa^2 per hundred periods
        params = DEFAULT_OHMIC
        traj = integrate(QuenchProtocol(0.0, 50.0), bath=params, settings=TIGHT, samples=11)
        n = observables_from_covariance(traj.vs, traj.protocol.coupling(traj.ts))["n"]
        assert float(n[1]) < 10.0 * params.kappa**2  # t = 5: dressing level
        assert np.max(n) < 100.0 * params.kappa**2  # no runaway over t = 50

    def test_step_halving_reproducible(self):
        p = QuenchProtocol(1.0, 50.0)
        coarse = integrate(p, bath=DEFAULT_OHMIC, samples=0).final
        fine = integrate(p, bath=DEFAULT_OHMIC, settings=TIGHT, samples=0).final
        assert np.max(np.abs(coarse - fine)) / np.max(np.abs(fine)) < 1e-8

    def test_batch_layout(self):
        taus = np.array([20.0, 40.0])
        ss, vs = propagate_covariance_batch(taus, 1.0, 1.0, DEFAULT_OHMIC)
        dim = vs.shape[-1]
        assert dim == 2 * (DEFAULT_OHMIC.n_oscillators + 1)
        assert vs.shape == (1, 2, dim, dim)
        # members of different quench times end at different physical times
        with pytest.raises(ValueError, match="one quench time"):
            propagate_covariance_batch(taus, 1.0, 1.0, DEFAULT_OHMIC, s_samples=[0.0, 0.5, 1.0])


class TestStructuredSweep:
    def test_nonlinear_excess_matches_a_tight_run(self):
        # the isolated and open members share one step sequence, so their
        # step errors cancel in the excess; isolated members run apart on
        # their own steps left these short nonlinear ramps off by ~3e-2.
        # The reference tightens what the structured path reads: the
        # tolerance, and a step cap well below the accuracy-limited steps
        text = (
            "bath.type = structured\nprotocol.r_n = 1.25\nsweep.tau_min = 10\nsweep.tau_max = 40\n"
            "sweep.points_per_decade = 5\n"
        )

        def excess(extra, max_step=np.inf):
            cfg = build_config(parse_config_text(text + extra))
            cfg = replace(cfg, settings=replace(cfg.settings, max_step=max_step))
            iso, opn, errors = sweep.compute_chunk(cfg, sweep.tau_grid(cfg.tau_min, cfg.tau_max, 5))
            assert not errors
            return {obs: opn[obs] - iso[obs] for obs in cfg.observables}

        shipped = excess("")
        tight = excess("integrator.rtol = 1e-13\n", max_step=0.05)
        for obs, delta in tight.items():
            assert delta.size == 4
            assert np.all(np.abs(shipped[obs] - delta) <= 1e-6 * np.abs(delta)), obs


class TestFrozenChain:
    """Each step collocates the isolated mode's propagator U; the chain frame advances the rest."""

    def test_frame_rhs_maps_back_to_the_system_columns_of_the_full_rhs(self):
        # with S = U (1 + e) U^T and X = Re(P Z^T) U^T, the frame's rates are the Lyapunov flow
        rng = np.random.default_rng(8)
        tau, g_f, r_n = np.array([1.3, 0.8]), np.array([0.5, 0.9]), np.ones(2)
        u = np.eye(2) + 0.3 * rng.normal(size=(2, 2, 2))
        u_t = u.swapaxes(-1, -2)
        m = 1e-3 * rng.normal(size=(2, 2, 2))
        e = m + m.swapaxes(-1, -2)
        m = 0.1 * rng.normal(size=(2, 8, 8))
        c = np.eye(8) + m + m.swapaxes(-1, -2)
        models = (THERMODYNAMIC, ModelSpec(kind=ModelKind.QRM, eta=30.0), ModelSpec(kind=ModelKind.LMG, eta=30.0))
        for model in models:
            drift, diffusion = np.stack(build_system(model, DEFAULT_OHMIC))[:, None].repeat(2, axis=1)
            frame = ChainFrame(drift, diffusion)
            z = 1e-2 * (rng.normal(size=frame.z.shape) + 1j * rng.normal(size=frame.z.shape))
            x = (frame.p @ z).real @ u_t
            v = np.block([[u @ (np.eye(2) + e) @ u_t, x.swapaxes(-1, -2)], [x, c]])
            eta = np.full(2, model.eta)
            for exponent in (1.0, 1.25):
                ramp = (model, tau, g_f, exponent * r_n, eta, tau)
                full = lyapunov_batch_rhs(drift, diffusion, *ramp)(0.7, v)[:, :, :2]
                p, q = system_rates(*ramp[:-1])(np.array([0.7]))
                du = np.stack([p[0, :, None] * u[:, 1], -q[0, :, None] * u[:, 0]], axis=1)  # [[0, p], [-q, 0]] U
                de, dz = frame.rates(u, e, z, c)
                # S' = U' (1 + e) U^T + U (1 + e) U'^T + U e' U^T, X' = Re(P Z'^T) U^T + Re(P Z^T) U'^T
                half = du @ (np.eye(2) + e) @ u_t
                dsystem = half + half.swapaxes(-1, -2) + u @ de @ u_t
                dx = (frame.p @ dz).real @ u_t + (frame.p @ z).real @ du.swapaxes(-1, -2)
                for got, want in ((dsystem, full[:, :2]), (dx, full[:, 2:])):
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (model.kind, exponent)

    def test_exp_weights_integrate_polynomials_exactly(self):
        # sum_j W[k, t, j] p(c_j) = int_0^tau_t exp(z (tau_t - x)) p(x) dx for deg p < m,
        # against sum_n (e^{z tau} p^(n)(0) - p^(n)(tau)) / z^(n + 1) in high precision:
        # at z = 1e-8 its terms reach m! z^-m, 8 m + log10(m!) digits that cancel to
        # the O(1) integral, so the digits grow with the rule's m, 30 more for the answer
        mpmath = pytest.importorskip("mpmath")
        rule = chain_frame().rule
        m = rule.nodes.size
        mpmath.mp.dps = 30 + 8 * m + math.ceil(math.lgamma(m + 1) / math.log(10))
        coeffs = np.random.default_rng(2).normal(size=rule.nodes.size)
        values = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        ends = np.append(rule.nodes, 1.0)

        def exact(z, tau):
            c, tau = [mpmath.mpf(a) for a in coeffs], mpmath.mpf(tau)
            if z == 0.0:
                return complex(sum(a * tau ** (n + 1) / (n + 1) for n, a in enumerate(c)))
            z, total = mpmath.mpc(z), mpmath.mpc(0)
            for k in range(len(c)):
                falling = [mpmath.factorial(n) / mpmath.factorial(n - k) for n in range(k, len(c))]
                at_tau = sum(f * a * tau**p for p, (f, a) in enumerate(zip(falling, c[k:])))
                total += (mpmath.exp(z * tau) * mpmath.factorial(k) * c[k] - at_tau) / z ** (k + 1)
            return complex(total)

        for size in (0.0, 1e-8, 1e-3, 0.5, 50.0, 1e3):
            for angle in (np.pi, 0.75 * np.pi, 0.5 * np.pi):  # real, complex, imaginary
                z = size * np.exp(1j * angle)
                weights, decay = rule.exp_weights(np.array([z]))
                assert np.allclose(decay[0], np.exp(z * ends), rtol=1e-15, atol=0.0)
                for tau, row in zip(ends, weights[0]):
                    want = exact(z, tau)
                    assert abs(row @ values - want) <= 1e-13 * abs(want), (z, tau)

    def test_exp_weights_are_continuous_across_the_branch_switch(self, monkeypatch):
        # at |z tau| = FAR each end switches from the Gauss rule to integration
        # by parts: both branches give the same weights there
        rule = chain_frame().rule
        for angle in (np.pi, 0.75 * np.pi, 0.5 * np.pi):
            for t, tau in enumerate(rule.ends):
                z = np.array([FAR / tau * np.exp(1j * angle)])
                branches = []
                for switch in (FAR * (1.0 + 1e-9), FAR * (1.0 - 1e-9)):
                    monkeypatch.setattr(_flows, "FAR", switch)
                    branches.append(rule.exp_weights(z)[0][0, t])
                near, far = branches
                assert np.max(np.abs(near - far)) <= 1e-13 * np.max(np.abs(near)), (angle, tau)

    def test_frame_error_estimate_is_a_high_order_local_error(self, monkeypatch):
        # the frame's embedded estimate (Phi's last Legendre mode) falls about
        # 2^15 times per halving of the step, as a local error of high order does
        def median_error(h):
            seen = []

            def frame(*args):
                built = ChainFrame(*args)
                make = built.advance

                def recording(*setup):
                    advance = make(*setup)

                    def recorded(step, *rest):
                        err, commit = advance(step, *rest)
                        seen.append((step, err))
                        return err, commit

                    return recorded

                built.advance = recording
                return built

            monkeypatch.setattr(moments, "ChainFrame", frame)
            settings = IntegratorSettings(rtol=1e-3, atol=1e-9, max_step=h)
            times = []
            real = moments.collocate_to

            def collocate(rule, system, advance, t0, t1, u0, step):
                def timed(node_times):  # one call per attempt, at t + h c_j
                    times.append(node_times[0])
                    return system(node_times)

                return real(rule, timed, advance, t0, t1, u0, step)

            monkeypatch.setattr(moments, "collocate_to", collocate)
            propagate_covariance_batch(80.0, 1.0, 1.0, DEFAULT_OHMIC, settings=settings, kappa=[0.0, DEFAULT_OHMIC.kappa])
            # past the start, where every step sits at the cap
            return np.median([err for t, (step, err) in zip(times, seen) if t > 10.0 and step == h])

        # steps long enough that both estimates stand well above rounding (about 4e-14)
        coarse, fine = median_error(8.0), median_error(4.0)
        assert 0.0 < fine and coarse / fine > 100.0

    def test_one_step_matches_the_integrated_chain_block(self):
        # with the cross block held, one exact step is the chain block's own flow
        drift, diffusion = build_system(THERMODYNAMIC, replace(DEFAULT_OHMIC, kappa=1e-2))
        rng = np.random.default_rng(4)
        m = rng.normal(size=(10, 10))
        v = np.eye(10) + 0.01 * (m + m.T)

        def chain_rhs(t, c):
            w = v.copy()
            w[2:, 2:] = c
            out = drift @ w
            return (out + out.T + diffusion)[2:, 2:]

        ref = solve_to(chain_rhs, 0.0, 0.3, v[2:, 2:], TIGHT)
        c, x = v[None, 2:, 2:].copy(), v[None, 2:, :2].copy()
        new = ChainFrame(drift[None], diffusion[None]).flow(0.3, c, x, np.arange(1))
        assert np.max(np.abs(new[0] - ref)) < 1e-11
        assert np.array_equal(new[0], new[0].T)
        assert np.array_equal(c[0], v[2:, 2:]) and np.array_equal(x[0], v[2:, :2])

    def test_kappa_zero_members_keep_the_vacuum_chain(self, monkeypatch):
        # without coupling the frame has nothing to move: e = 0, Z = 0 and
        # C = I bit for bit, and the member's U is the open member's
        frames, finals = [], []

        def frame(*args):
            frames.append(ChainFrame(*args))
            return frames[-1]

        def collocate(*args):
            finals.append(collocate_to(*args))
            return finals[-1]

        monkeypatch.setattr(moments, "ChainFrame", frame)
        monkeypatch.setattr(moments, "collocate_to", collocate)
        _, vs = propagate_covariance_batch(60.0, 1.0, 1.0, DEFAULT_OHMIC, kappa=[0.0, DEFAULT_OHMIC.kappa])
        ((frame,),), ((u_iso, u_open),) = (frames,), finals
        assert np.array_equal(frame.e[0], np.zeros((2, 2))) and not np.any(frame.z[0])
        assert np.array_equal(frame.c[0], np.eye(8)) and np.array_equal(frame.x[0], np.zeros((8, 2)))
        assert np.array_equal(u_iso, u_open)
        assert np.array_equal(vs[-1, 0, :2, :2], u_iso @ u_iso.T)
        isolated, open_ = vs[-1, 0, 2:, 2:], vs[-1, 1, 2:, 2:]
        assert np.array_equal(isolated, np.eye(8))
        assert 0.0 < np.max(np.abs(open_ - np.eye(8))) < 1e-6
        assert np.array_equal(vs[-1], vs[-1].swapaxes(-1, -2))
        # a batch of uncoupled members only is stepped like any other: zero
        # forcing leaves every member at V = U U^T + I, from the chain's first step
        frames.clear(), finals.clear()
        params = _decoupled(DEFAULT_OHMIC, keep_gamma=False)
        _, vs = propagate_covariance_batch(60.0, [1.0, 0.8], 1.0, params)
        ((frame,),), (u,) = (frames,), finals
        chain = build_system(THERMODYNAMIC, params)[0][2:, 2:]
        assert frame.first_step == 1.0 / np.max(np.abs(np.linalg.eigvals(chain)))
        for v, u_b in zip(vs[-1], u):
            assert np.array_equal(v, np.block([[u_b @ u_b.T, np.zeros((2, 8))], [np.zeros((8, 2)), np.eye(8)]]))

    def test_isolated_state_stays_pure_over_a_long_ramp(self):
        # the accepted U is projected back to det U = 1: without it the stages'
        # error drifts the isolated state off purity, and this ramp ends with
        # V + iJ at -3.7e-10, below the physicality floor
        _, vs = propagate_covariance_batch(300.0, 0.75, 1.0, DEFAULT_OHMIC, kappa=[0.0, DEFAULT_OHMIC.kappa])
        assert abs(np.linalg.det(vs[-1, 0, :2, :2]) - 1.0) < 1e-13

    def test_final_v_matches_the_full_flow_in_every_block(self):
        # the engine's V, rebuilt from the system columns and the chain
        # block, against the full flow of the network as built; checked
        # per block (system, cross, chain), so a failure names the block
        _, vs = propagate_covariance_batch(20.0, 1.0, 1.0, DEFAULT_OHMIC, kappa=[0.0, DEFAULT_OHMIC.kappa])
        ref = full_flow_covariance(DEFAULT_OHMIC, THERMODYNAMIC, 20.0, 1.0, dtype=float)
        v = vs[-1]
        bound = 1e-10 * np.max(np.abs(v))
        for block in (np.s_[:, :2, :2], np.s_[:, :2, 2:], np.s_[:, 2:, 2:]):
            assert np.max(np.abs(v[block] - ref[block])) <= bound, block

    def test_sampled_trajectory_rebuilds_v_at_every_sample(self, monkeypatch):
        # the last sample is the V the engine checks at the end, bit for bit
        checked = []
        defect = moments.physicality_defect

        def spy(v, j):
            checked.append(v.copy())
            return defect(v, j)

        protocol = QuenchProtocol(1.0, 20.0)
        monkeypatch.setattr(moments, "physicality_defect", spy)
        vs = integrate(protocol, bath=DEFAULT_OHMIC, samples=17).vs
        # checked once for V and once for the isolated U U^T
        assert vs.shape == (17, 10, 10) and len(checked) == 2
        assert np.array_equal(vs[-1], checked[0][0])
        unsampled = integrate(protocol, bath=DEFAULT_OHMIC, samples=0).final
        assert np.max(np.abs(vs[-1] - unsampled)) < 1e-9 * np.max(np.abs(unsampled))
        assert np.array_equal(vs, vs.swapaxes(-1, -2))
        assert np.min(physicality_defect(vs, symplectic_form(5))) >= -1e-10
        # the open member's chain block moves off the vacuum; the isolated one's never does
        _, both = propagate_covariance_batch(
            20.0, 1.0, 1.0, DEFAULT_OHMIC, s_samples=np.linspace(0.0, 1.0, 17), kappa=[0.0, DEFAULT_OHMIC.kappa]
        )
        chains = both[:, :, 2:, 2:]
        assert np.all(chains[:, 0] == np.eye(8))
        assert np.array_equal(chains[0, 1], np.eye(8))
        assert all(np.any(chain != np.eye(8)) for chain in chains[1:, 1])

    def test_markovian_batches_build_no_subflow(self, monkeypatch):
        # both baths step by collocation; a Markovian batch builds no chain frame
        def no_flow(*args):
            raise AssertionError("a Markovian batch built a chain flow")

        flows = []

        def solve(rhs, t0, t1, y0, settings, **carry):
            flows.append("stages")
            return solve_to(rhs, t0, t1, y0, settings, **carry)

        def collocate(*args):
            flows.append("frame")
            return collocate_to(*args)

        monkeypatch.setattr(moments, "solve_to", solve)
        monkeypatch.setattr(moments, "collocate_to", collocate)
        with monkeypatch.context() as patch:
            patch.setattr(moments, "ChainFrame", no_flow)
            members = moments.broadcast_members([10.0, 20.0], 1.0, 1.0, THERMODYNAMIC.eta)
            moments.propagate_batch(*moments.thermal_bath([0.0, 1e-3], 0.0), THERMODYNAMIC, *members)
        # the Markovian members' lanes are all of one length: one span
        assert flows == ["frame"]
        flows.clear()
        propagate_covariance_batch([10.0, 20.0], 1.0, 1.0, DEFAULT_OHMIC)
        assert flows == ["frame"] * 2

    def test_each_frame_builds_only_the_tables_it_reads(self, monkeypatch):
        # a structured batch eigendecomposes its chain drift once, in its frame;
        # a Markovian frame's rule carries none of the chain's exponential tables
        shapes, eig = [], np.linalg.eig

        def spy(a):
            shapes.append(a.shape)
            return eig(a)

        drift, diffusion = build_system(THERMODYNAMIC, DEFAULT_OHMIC)
        members = moments.broadcast_members([10.0, 20.0], 1.0, 1.0, THERMODYNAMIC.eta)
        monkeypatch.setattr(np.linalg, "eig", spy)
        moments.propagate_batch(drift, diffusion, THERMODYNAMIC, *members)
        assert shapes == [(8, 8)]
        rule = FRAME_RULES["markov"]()
        assert not any(hasattr(rule, name) for name in ("exp_weights", "near", "deriv_0", "deriv_end", "ends"))

    def test_rejects_a_chain_it_cannot_flow(self):
        tables = (DEFAULT_OHMIC, _decoupled(DEFAULT_OHMIC))
        drifts = np.stack([build_system(THERMODYNAMIC, params)[0] for params in tables])
        diffusion = np.broadcast_to(build_system(THERMODYNAMIC, DEFAULT_OHMIC)[1], drifts.shape)
        ChainFrame(drifts, diffusion)  # the decoupled table keeps its chain
        with pytest.raises(ValueError, match="stationary vacuum"):
            ChainFrame(drifts, 2.0 * diffusion)
        drifts[1, 2, 2] -= 1.0
        with pytest.raises(ValueError, match="share one chain"):
            ChainFrame(drifts, diffusion)

    def test_rejects_a_coupled_chain_with_an_undamped_mode(self):
        # the chain's Lyapunov operator is singular without damping; an
        # uncoupled batch never needs its inverse
        undamped = replace(DEFAULT_OHMIC, oscillators=tuple(replace(o, gamma=0.0) for o in DEFAULT_OHMIC.oscillators))
        with pytest.raises(ValueError, match="mode at frequency 120.315 is undamped"):
            propagate_covariance_batch(20.0, 1.0, 1.0, undamped)
        drift, diffusion = build_system(THERMODYNAMIC, replace(undamped, kappa=0.0))
        ChainFrame(drift[None], diffusion[None])


class TestCollocation:
    """One Gauss collocation step of the isolated mode's propagator U (:meth:`FrameRule.collocate`)."""

    @staticmethod
    def ramp(r_n, tau=40.0):
        tau = np.array([tau])
        return system_rates(THERMODYNAMIC, tau, np.ones(1), np.array([r_n]), np.full(1, THERMODYNAMIC.eta))

    def test_constant_block_gives_the_closed_form_propagator(self):
        (p, q), h = (1.3, 0.7), 3.5
        w = np.sqrt(p * q)
        exact = [[np.cos(w * h), np.sqrt(p / q) * np.sin(w * h)], [-np.sqrt(q / p) * np.sin(w * h), np.cos(w * h)]]
        for frame, rule in FRAME_RULES.items():
            rule = rule()
            m = rule.nodes.size
            _, end, _ = rule.collocate(np.full((m, 1), p), np.full((m, 1), q), h, np.eye(2)[None])
            assert np.max(np.abs(end[0] - exact)) <= 1e-13, frame

    @pytest.mark.parametrize("r_n", [1.0, 1.25])
    def test_nodes_match_a_tight_runge_kutta_run(self, r_n):
        system = self.ramp(r_n)
        t, h = 17.0, 2.0

        def rhs(u, y):
            p, q = system(np.array([u]))
            return np.array([[0.0, p[0, 0]], [-q[0, 0], 0.0]]) @ y

        u0 = np.array([[1.1, 0.2], [-0.3, 0.85]])
        u0 /= np.sqrt(np.linalg.det(u0))
        tight = IntegratorSettings(rtol=1e-14, atol=1e-16, max_step=0.05)
        for frame, rule in FRAME_RULES.items():
            rule = rule()
            nodes, _, _ = rule.collocate(*system(t + h * rule.nodes), h, u0[None])
            for got, c in zip(nodes[0], rule.nodes):
                want = solve_to(rhs, t, t + c * h, u0, tight)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (frame, c)

    @pytest.mark.parametrize("r_n", [1.0, 1.25])
    def test_stage_estimate_is_a_local_error_of_the_node_count(self, r_n):
        # dropping the last Legendre mode of the m stage derivatives moves U at
        # the nodes by O(h^m): the estimate grows about (h_2 / h_1)^m between
        # two steps from s = 0.425.  At 24 nodes that regime lies at rounding
        # for a doubled step (2^23.3 at best, the smaller estimate 3e-17), so
        # that rule takes a step 1.25 times longer, the smaller estimate about
        # 1e-15, on a ramp 100 times slower: at tau = 40 the ramp's change over
        # such a step holds the ratio at 1.25^21.2 to 1.25^21.7
        for frame, tau, (short, long) in (("chain", 40.0, (4.0, 8.0)), ("markov", 4000.0, (11.0, 13.75))):
            system, rule = self.ramp(r_n, tau), FRAME_RULES[frame]()
            m = rule.nodes.size

            def estimate(h):
                change = rule.collocate(*system(0.425 * tau + h * rule.nodes), h, np.eye(2)[None])[2]
                return np.sqrt(np.mean(change**2))

            assert estimate(long) / estimate(short) > (long / short) ** (m - 1), (frame, m)

    @staticmethod
    def batch(rule, h):
        """``(p, q, u)``: 44 members of distinct quench times at ``t = 5``, each from its own symplectic ``u``."""
        rng = np.random.default_rng(44)
        tau = np.geomspace(10.0, 1e4, 44)
        p, q = system_rates(THERMODYNAMIC, tau, np.ones(44), np.ones(44), np.full(44, THERMODYNAMIC.eta))(
            5.0 + h * rule.nodes
        )
        turn = rng.uniform(0.0, 2.0 * np.pi, (2, 44))
        c, s = np.cos(turn), np.sin(turn)
        rotations = np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))  # (2, 44, 2, 2)
        squeeze, r = np.zeros((44, 2, 2)), rng.uniform(0.0, 2.0, 44)
        squeeze[:, 0, 0], squeeze[:, 1, 1] = np.exp(r), np.exp(-r)
        return p, q, rotations[0] @ squeeze @ rotations[1]

    def test_a_batch_matches_each_member_collocated_alone(self):
        # the members share the rule's tables and nothing else.  Not bit for bit:
        # the BLAS runs a lone member's one-row product through another kernel and
        # the solve carries that rounding on, growing with the step: the gap is
        # 5.5e-16 max|U| here and 1.6e-15 at h = 4
        h = 1.0
        for frame, rule in FRAME_RULES.items():
            rule = rule()
            p, q, u = self.batch(rule, h)
            together = rule.collocate(p, q, h, u)
            scale = np.max(np.abs(together[0]))
            for b in range(u.shape[0]):
                alone = rule.collocate(p[:, b : b + 1], q[:, b : b + 1], h, u[b : b + 1])
                for got, want in zip(together, alone):
                    assert np.max(np.abs(got[b] - want[0])) <= 1e-15 * scale, (frame, b)

    @pytest.mark.parametrize("h", [1.0, 4.0])
    def test_nodes_solve_the_collocation_equations(self, h):
        # U_i = u + h sum_j a_ij A_j U_j, A_j = [[0, p_j], [-q_j, 0]], for every member
        for frame, rule in FRAME_RULES.items():
            rule = rule()
            p, q, u = self.batch(rule, h)
            nodes = rule.collocate(p, q, h, u)[0]  # (B, m, 2, 2)
            slopes = np.stack([p.T[..., None] * nodes[:, :, 1], -q.T[..., None] * nodes[:, :, 0]], axis=-2)
            residual = u[:, None] + h * np.einsum("ij,bjkl->bikl", rule.collocation, slopes) - nodes
            assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(nodes)), frame

    def test_collocate_to_carries_the_step_across_stops(self):
        # a second span starts from the proposal the first ended with
        frame = chain_frame()
        flow = (frame.rule, self.ramp(1.0), frame.advance(np.arange(1), 1e-10, 1e-12))
        step = _StepControl(IntegratorSettings(max_step=3.5), -1.0 / frame.rule.nodes.size, frame.first_step)
        u = collocate_to(*flow, 0.0, 20.0, np.eye(2)[None], step)
        carried, attempts = step.h, step.n_steps
        collocate_to(*flow, 20.0, 40.0, u, step)
        assert carried > 1.0 and step.n_steps - attempts < (40.0 - 20.0) / carried + 3


class TestLongDoubleOracle:
    """A long-double run of the full flow at a quarter of its stability cap
    is the reference for the structured excess; the shipped batch, each
    step collocating only the isolated mode's propagator and the chain
    frame advancing the rest, lands within 7e-8 of it."""

    def assert_matches_the_oracle(self, g_final, r_n):
        shipped = structured_excess(DEFAULT_OHMIC, THERMODYNAMIC, 50.0, g_final, r_n)
        oracle = long_double_excess(DEFAULT_OHMIC, THERMODYNAMIC, 50.0, g_final, r_n)
        for obs in EXCESS_OBSERVABLES:
            assert abs(shipped[obs] - oracle[obs]) <= 1e-6 * abs(oracle[obs]), obs

    def test_excess_matches_a_long_double_run(self):
        self.assert_matches_the_oracle(0.75, 1.0)

    def test_nonlinear_ramp_matches_a_long_double_run(self):
        self.assert_matches_the_oracle(1.0, 1.25)


class TestObservables:
    def test_vacuum(self):
        v = np.eye(10)
        rec = observables_from_covariance(v, 0.0)
        assert rec["n"] == 0.0
        assert rec["dx"] == 1.0 and rec["dp"] == 1.0

    def test_direct_substitution(self):
        v = np.eye(10)
        v[0, 0] = 7.0
        v[1, 1] = 7.0
        rec = observables_from_covariance(v, 0.0)
        assert rec["n"] == pytest.approx(3.0, abs=1e-15)

    def test_moment_mapping_consistency(self):
        # the extractor reads the system block only, the same way for the
        # full chain covariance and for the single mode
        rng = np.random.default_rng(5)
        m = rng.normal(size=(10, 10))
        v = m @ m.T + 10.0 * np.eye(10)
        rec = observables_from_covariance(v, 0.3)
        assert rec["n"] == pytest.approx((v[0, 0] + v[1, 1]) / 4.0 - 0.5, rel=1e-14)
        assert rec["dx"] == pytest.approx(np.sqrt(v[0, 0]), rel=1e-14)
        assert rec["dp"] == pytest.approx(np.sqrt(v[1, 1]), rel=1e-14)
        block = v[:2, :2]
        assert observables_from_covariance(block, 0.3) == rec

    def test_unphysical_covariance_rejected(self):
        v = np.eye(10)
        v[0, 0] = -1.0
        with pytest.raises(PhysicalityError):
            observables_from_covariance(v, 0.0)


class TestSteadyState:
    def test_algebraic_fixed_point(self):
        terms = build_system(THERMODYNAMIC, DEFAULT_OHMIC)
        v = steady_state_covariance(THERMODYNAMIC, 0.5, *terms)
        resid = lyapunov_rhs(v, terms, 0.5)
        assert np.max(np.abs(resid)) < 1e-10
        assert physicality_defect(0.5 * (v + v.T), symplectic_form(5)) > -1e-8

    def test_coupling_validated(self):
        with pytest.raises(DomainError, match="coupling g"):
            steady_state_covariance(THERMODYNAMIC, 1.5, *build_system(THERMODYNAMIC, DEFAULT_OHMIC))

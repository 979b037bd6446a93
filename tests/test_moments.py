"""Covariance propagation: oracles, invariants, observables, bath physics."""

import math

import numpy as np
import pytest

from critquench import (
    BathSpec,
    IntegratorSettings,
    ModelKind,
    ModelSpec,
    QuenchProtocol,
    ground_state_covariance,
    integrate,
    observables_from_covariance,
    steady_state_covariance,
    thermal_bath,
)
from critquench import moments
from critquench.auxbath import DEFAULT_OHMIC
from critquench.errors import DomainError, IntegrationFailure, PhysicalityError
from critquench._flows import MarkovFrame, system_rates
from critquench.moments import ISOLATED, lyapunov_batch_rhs, write_trajectory
from critquench.model import THERMODYNAMIC, ground_state_energy, quadrature_form
from critquench.moments import physicality_defect, set_system_block, symplectic_form
from critquench.protocol import ramp_profile

from helpers_fock import propagate_master_equation

TIGHT = IntegratorSettings(rtol=1e-12, atol=1e-14)
VACUUM = np.eye(2)


def rhs_at(v, t, protocol, model=THERMODYNAMIC, bath=ISOLATED):
    """dV/dt of one member (B = 1) at time t, from the batch RHS with unit time scale."""
    drift_base, diffusion = thermal_bath([bath.kappa], [bath.n_th])
    rhs = lyapunov_batch_rhs(
        drift_base,
        diffusion,
        model,
        np.array([1.0]),
        np.array([protocol.g_final]),
        np.array([protocol.r_n]),
    )
    return rhs(t / protocol.tau_q, np.asarray(v, dtype=float)[None])[0]


def moments_of(v):
    """(sigma, sigma10) of the Wigner characteristic function, from V."""
    return 0.25 * (v[0, 0] + v[1, 1]), 0.25 * (v[1, 1] - v[0, 0]) + 0.5j * v[0, 1]


def covariance_of(sigma, sigma10):
    """V of the state with moments (sigma, sigma10); inverse of moments_of."""
    x2 = 2.0 * sigma - 2.0 * sigma10.real
    p2 = 2.0 * sigma + 2.0 * sigma10.real
    return np.array([[x2, 2.0 * sigma10.imag], [2.0 * sigma10.imag, p2]])


class TestBathSpec:
    def test_rates_from_occupation(self):
        # Gamma_a = kappa (n_th + 1)/2 = 0.4 and Gamma_adag = kappa n_th/2 = 0.3:
        # damping Gamma_adag - Gamma_a, diffusion 2 (Gamma_a + Gamma_adag)
        drift, diffusion = thermal_bath(0.2, 3.0)
        np.testing.assert_allclose(drift, (0.3 - 0.4) * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(diffusion, 2.0 * (0.3 + 0.4) * np.eye(2), atol=1e-15)

    def test_rate_ordering(self):
        # Gamma_a >= Gamma_adag >= 0: damping, and diffusion at least the
        # zero-temperature value that keeps the vacuum fixed
        bath = BathSpec.from_temperature(kappa=1e-3, temperature=10.0, omega=1.0)
        drift, diffusion = thermal_bath(bath.kappa, bath.n_th)
        assert np.all(np.diag(drift) <= 0.0)
        assert np.all(np.diag(diffusion) >= -2.0 * np.diag(drift))
        assert bath.n_th == pytest.approx(1.0 / math.expm1(0.1), rel=1e-14)
        # the occupation is that of the mode frequency it is given
        assert BathSpec.from_temperature(1e-3, 4.0, 2.0).n_th == 1.0 / math.expm1(0.5)

    def test_zero_temperature_short_circuit(self):
        assert BathSpec.from_temperature(1e-3, 0.0, 1.0).n_th == 0.0

    def test_cold_bath_past_expm1_range(self):
        # omega / T = 1000 and 1e6 overflow expm1; the occupation is 0
        assert BathSpec.from_temperature(1e-4, 1e-3, 1.0).n_th == 0.0
        assert BathSpec.from_temperature(1e-4, 1e-6, 1.0).n_th == 0.0
        # just inside the range the closed form is kept bit for bit
        temperature = 1.0 / 709.0
        assert BathSpec.from_temperature(1e-4, temperature, 1.0).n_th == 1.0 / math.expm1(1.0 / temperature)

    def test_zero_kappa_kills_rates(self):
        bath = BathSpec(kappa=0.0, n_th=5.0)
        drift, diffusion = thermal_bath(bath.kappa, bath.n_th)
        assert not np.any(drift) and not np.any(diffusion)
        assert bath.is_isolated

    def test_array_rates_stack_per_member(self):
        drift, diffusion = thermal_bath([0.0, 0.2], 3.0)
        assert drift.shape == diffusion.shape == (2, 2, 2)
        np.testing.assert_array_equal(diffusion[1], thermal_bath(0.2, 3.0)[1])

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            BathSpec(kappa=-1.0)
        with pytest.raises(DomainError):
            BathSpec(kappa=0.1, n_th=-0.5)
        with pytest.raises(DomainError):
            BathSpec.from_temperature(0.1, -1.0, 1.0)
        with pytest.raises(DomainError):
            BathSpec(kappa=math.nan)


class TestMomentRhs:
    def test_vacuum_uncoupled_stationary(self):
        p = QuenchProtocol(g_final=0.0, tau_q=1.0)
        assert not np.any(rhs_at(VACUUM, 0.5, p))

    def test_vacuum_thermal_pumping(self):
        # d sigma = Gamma_+ = kappa n_th at the vacuum, so dV = 2 kappa n_th I
        p = QuenchProtocol(g_final=0.0, tau_q=1.0)
        bath = BathSpec(kappa=0.01, n_th=3.0)
        d_v = rhs_at(VACUUM, 0.5, p, bath=bath)
        np.testing.assert_allclose(d_v, 2.0 * 0.01 * 3.0 * np.eye(2), rtol=1e-15, atol=0.0)

    def test_ground_state_stationary(self):
        # closed-form squeezed state must sit on the frozen-coupling
        # fixed point of the isolated flow
        for g in (0.2, 0.6, 0.9):
            p = QuenchProtocol(g_final=g, tau_q=1.0)
            d_v = rhs_at(ground_state_covariance(g), 1.0, p)
            assert np.max(np.abs(d_v)) < 1e-12

    def test_matches_printed_complex_equations(self):
        # the Lyapunov flow is the moment system
        # d sigma = 2 G_- sigma + G_+ - 2i lam (sigma01 - sigma10),
        # d sigma10 = (2i w + 2 G_-) sigma10 - 4i lam sigma, at a generic
        # state, finite-size model and time within a longer ramp
        model = ModelSpec(kind=ModelKind.QRM, eta=40.0)
        p = QuenchProtocol(g_final=0.9, tau_q=2.0, r_n=0.5)
        bath = BathSpec(kappa=0.3, n_th=1.5)
        sigma, s10 = 0.9, 0.2 - 0.35j
        g = p.coupling(1.2)
        drive = 0.5 * g * g - 12.0 * g**4 / 40.0
        w, lam = 1.0 - drive, -0.5 * drive
        gm, gp = 0.5 * 0.3 * 1.5 - 0.5 * 0.3 * 2.5, 0.5 * 0.3 * 1.5 + 0.5 * 0.3 * 2.5
        expect_sigma = 2.0 * gm * sigma + gp - 2.0j * lam * (s10.conjugate() - s10)
        expect_s10 = (2.0j * w + 2.0 * gm) * s10 - 4.0j * lam * sigma
        d_sigma, d_s10 = moments_of(rhs_at(covariance_of(sigma, s10), 1.2, p, model=model, bath=bath))
        assert d_sigma == pytest.approx(expect_sigma, abs=1e-14)
        assert d_s10 == pytest.approx(expect_s10, abs=1e-14)

    def test_pure_function_of_time_and_state(self):
        # the drift buffer is reused across calls; evaluating s1, s2, s1
        # must reproduce the first result bit for bit and leave the
        # earlier results alone (the stepper keeps them across calls),
        # for mixed ramps and for an all-linear batch, which skips the power
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 2, 2))
        v = m @ np.swapaxes(m, 1, 2) + np.eye(2)
        for r_n in ([1.0, 2.0, 0.5], [1.0, 1.0, 1.0]):
            drift_base, diffusion = thermal_bath([0.0, 0.1, 0.2], 1.0)
            rhs = lyapunov_batch_rhs(
                drift_base,
                diffusion,
                ModelSpec(kind=ModelKind.LMG, eta=30.0),
                np.array([1.0, 5.0, 9.0]),
                np.array([1.0, 0.8, 0.5]),
                np.array(r_n),
                eta=np.array([30.0, 100.0, 1e3]),
            )
            first = rhs(0.3, v)
            kept = first.copy()
            second = rhs(0.9, v)
            assert not np.shares_memory(first, second)
            assert not np.array_equal(first, second)
            third = rhs(0.3, v)
            assert not np.shares_memory(first, third)
            np.testing.assert_array_equal(third, first)
            np.testing.assert_array_equal(first, kept)
            np.testing.assert_array_equal(drift_base, thermal_bath([0.0, 0.1, 0.2], 1.0)[0])

    @pytest.mark.parametrize("kind", [ModelKind.THERMODYNAMIC, ModelKind.QRM, ModelKind.LMG])
    def test_linear_batch_matches_mixed_batch_bitwise(self, kind):
        # the all-linear shortcut must give each member the dV/ds it gets
        # inside a batch that also holds a nonlinear ramp
        model = THERMODYNAMIC if kind is ModelKind.THERMODYNAMIC else ModelSpec(kind=kind, eta=40.0)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 2, 2))
        v = m @ np.swapaxes(m, 1, 2) + np.eye(2)
        kappa = np.array([0.0, 1e-3, 0.2, 0.05])
        tau = np.array([3.0, 40.0, 700.0, 9.0])
        g_final = np.array([1.0, 0.9, 0.6, 1.0])
        drift_base, diffusion = thermal_bath(kappa, 0.5)
        mixed = lyapunov_batch_rhs(drift_base, diffusion, model, tau, g_final, np.array([1.0, 1.0, 1.0, 0.5]))
        linear = lyapunov_batch_rhs(drift_base[:3], diffusion[:3], model, tau[:3], g_final[:3], np.ones(3))
        for s in (0.0, 0.137, 0.5, 0.999, 1.0):
            assert linear(s, v[:3]).tobytes() == mixed(s, v)[:3].tobytes()


class TestFoldedRhs:
    """The RHS with its rate and coefficients folded in at build time
    equals ``rate (Gamma V + V Gamma^T + D)`` with Gamma from set_system_block,
    and the engine's system rates equal the model's quadrature form."""

    MODELS = [THERMODYNAMIC, ModelSpec(kind=ModelKind.QRM, eta=30.0), ModelSpec(kind=ModelKind.LMG, eta=30.0, omega=1.2)]

    @pytest.mark.parametrize("model", MODELS, ids=["thermodynamic", "qrm", "lmg"])
    @pytest.mark.parametrize("r_n", [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 0.5, 1.0]], ids=["linear", "mixed"])
    @pytest.mark.parametrize("clock", ["rescaled", "physical"])
    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_matches_unfolded_lyapunov_form(self, model, r_n, clock, n_modes):
        rng = np.random.default_rng(17)
        tau = np.array([3.0, 40.0, 700.0, 9.5])
        g_final = np.array([1.0, 0.9, 0.6, 0.95])
        eta = None if model.kind is ModelKind.THERMODYNAMIC else np.array([30.0, 5.0, 1e3, np.inf])
        r_n = np.array(r_n)
        dim = 2 * n_modes
        drift_base = rng.normal(size=(4, dim, dim))
        m = rng.normal(size=(4, dim, dim))
        diffusion = m @ m.swapaxes(-1, -2)
        v = rng.normal(size=(4, dim, dim))
        v = v @ v.swapaxes(-1, -2) + np.eye(dim)
        end = 1.0 if clock == "rescaled" else tau
        rhs = lyapunov_batch_rhs(drift_base, diffusion, model, tau, g_final, r_n, eta=eta, end=end)
        for u in np.array([0.0, 0.37, 0.81, 1.0]) * np.min(end):
            got = rhs(u, v)
            g = g_final * ramp_profile(r_n)(u / end)
            gamma = set_system_block(drift_base.copy(), model, g, eta=eta)
            gv = gamma @ v
            want = (tau / end)[:, None, None] * (gv + gv.swapaxes(-1, -2) + diffusion)
            for b in range(4):
                assert np.max(np.abs(got[b] - want[b])) <= 1e-14 * np.max(np.abs(want[b]))

    @pytest.mark.parametrize("model", MODELS, ids=["thermodynamic", "qrm", "lmg"])
    @pytest.mark.parametrize("r_n", [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 0.5, 1.0]], ids=["linear", "mixed"])
    def test_system_rates_match_the_quadrature_form(self, model, r_n):
        # the engine's ramped entries on their own: (p, q) = (h_pp, h_qq) at each member's g(t)
        tau = np.array([3.0, 40.0, 700.0, 9.5])
        g_final = np.array([1.0, 0.9, 0.6, 0.95])
        eta = None if model.kind is ModelKind.THERMODYNAMIC else np.array([30.0, 5.0, 1e3, np.inf])
        r_n = np.array(r_n)
        at = system_rates(model, tau, g_final, r_n, eta)
        for s in (0.0, 0.37, 0.81, 1.0):
            p, q = at(s * tau)  # member b at its own time s tau_b: the diagonal
            h_qq, h_pp = quadrature_form(model, g_final * ramp_profile(r_n)(s), eta=eta)
            for got, want in ((np.diag(p), h_pp), (np.diag(q), h_qq)):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestPhysicalityDefect:
    @pytest.mark.parametrize("dim", [2, 10])
    def test_real_embedding_matches_complex_eigensolver(self, dim):
        rng = np.random.default_rng(dim)
        j = symplectic_form(dim // 2)
        m = rng.normal(size=(40, dim, dim))
        # scales below and above the uncertainty bound: unphysical and physical states
        v = (m @ m.swapaxes(-1, -2)) / dim * rng.uniform(0.05, 3.0, 40)[:, None, None]
        v += np.eye(dim) * rng.uniform(0.0, 2.0, 40)[:, None, None]
        want = np.linalg.eigvalsh(v + 1j * j)[..., 0]
        assert np.any(want < -1e-3) and np.any(want > 1e-3)
        np.testing.assert_allclose(physicality_defect(v, j), want, rtol=0.0, atol=1e-13)
        assert physicality_defect(v[0], j) == pytest.approx(want[0], abs=1e-13)


def run_batch(terms, tau_q, g_final=1.0, s_samples=None, r_n=1.0):
    """``(s_times, V)`` of a batch of ramps of THERMODYNAMIC (linear by default) on a bath's ``terms``, drift base and diffusion."""
    members = moments.broadcast_members(tau_q, g_final, r_n, THERMODYNAMIC.eta)
    return moments.propagate_batch(*terms, THERMODYNAMIC, *members, s_samples=s_samples)[:2]


def spy_solve_spans(monkeypatch):
    """Record ``(t0, t1, members)`` of every span of the engine, ``solve_to`` or ``collocate_to``."""
    spans, real, collocate = [], moments.solve_to, moments.collocate_to

    def solve_to(rhs, t0, t1, y0, settings, **carry):
        spans.append((t0, t1, y0.shape[0]))
        return real(rhs, t0, t1, y0, settings=settings, **carry)

    def collocate_to(rule, system, advance, t0, t1, u0, step):
        spans.append((t0, t1, u0.shape[0]))
        return collocate(rule, system, advance, t0, t1, u0, step)

    monkeypatch.setattr(moments, "solve_to", solve_to)
    monkeypatch.setattr(moments, "collocate_to", collocate_to)
    return spans


class TestEngine:
    def test_members_leave_at_their_end(self, monkeypatch):
        # physical time: one span per distinct end, the end-1 member leaving after the first
        tau = np.array([2.0, 1.0, 2.0])
        drift_base, diffusion = thermal_bath(np.full(3, 0.1), 0.0)
        spans = spy_solve_spans(monkeypatch)
        args = (THERMODYNAMIC, tau, np.ones(3), np.ones(3), np.full(3, THERMODYNAMIC.eta))
        ss, vs, isolated = moments.propagate_batch(drift_base, diffusion, *args)
        assert spans == [(0.0, 1.0, 3), (1.0, 2.0, 2)]
        assert ss.tolist() == [1.0] and vs.shape == (1, 3, 2, 2) and isolated.shape == (1, 3, 2, 2)
        # the member that left carries its own quench to its end
        alone = integrate(QuenchProtocol(1.0, 1.0), bath=BathSpec(kappa=0.1), samples=0).final
        assert np.allclose(vs[0, 1], alone, rtol=1e-8, atol=0.0)
        with pytest.raises(ValueError, match="one quench time"):
            moments.propagate_batch(drift_base, diffusion, *args, s_samples=[0.0, 1.0])

    @pytest.mark.parametrize("bath", [BathSpec(kappa=0.1), DEFAULT_OHMIC], ids=["markovian", "structured"])
    def test_returns_exactly_the_requested_samples(self, bath, monkeypatch):
        # samples come back as given, in their order, with no end sample added;
        # each is one more stop, so the order of the request moves no bit
        spans = spy_solve_spans(monkeypatch)
        ss, vs = run_batch(bath.lyapunov_terms(THERMODYNAMIC), 20.0, s_samples=[0.5, 0.25])
        assert ss.tolist() == [0.5, 0.25] and vs.shape[:2] == (2, 1)
        end = spans[-1][1]
        assert [span[:2] for span in spans] == [(0.0, 0.25 * end), (0.25 * end, 0.5 * end), (0.5 * end, end)]
        _, ordered = run_batch(bath.lyapunov_terms(THERMODYNAMIC), 20.0, s_samples=[0.0, 0.25, 0.5])
        assert np.array_equal(vs, ordered[:0:-1]) and np.array_equal(ordered[0, 0, :2, :2], np.eye(2))
        for outside in ([0.0, 0.5, 1.5], [-0.25], [np.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                run_batch(bath.lyapunov_terms(THERMODYNAMIC), 20.0, s_samples=outside)

    def test_markovian_batch_of_mixed_quench_times_is_one_solve(self, monkeypatch):
        spans = spy_solve_spans(monkeypatch)
        moments.propagate_moments_batch([5.0, 10.0, 20.0], 1.0, 1.0, THERMODYNAMIC, 1e-3, 0.0)
        assert spans == [(0.0, 1.0, 3)]

    def test_unphysical_final_state_fails_at_its_end(self, monkeypatch):
        real = moments.solve_to

        def squeezed(rhs, t0, t1, y0, settings, **carry):
            v = real(rhs, t0, t1, y0, settings=settings, **carry)
            v[1] = 0.5 * np.eye(2)  # V + iJ has eigenvalue -1/2
            return v

        monkeypatch.setattr(moments, "solve_to", squeezed)
        with pytest.raises(IntegrationFailure, match="unphysical state") as err:
            moments.propagate_moments_batch([5.0, 10.0], 1.0, 1.0, THERMODYNAMIC, 1e-3, 0.0)
        assert err.value.t_last == 1.0

    def test_unphysical_final_state_fails_at_its_end_in_the_engine(self, monkeypatch):
        # the member of tau = 5 ends with U = I / 2, so V = I / 4 (1 + e): in
        # physical time it fails at its own end
        real = moments.collocate_to

        def squeezed(rule, system, advance, t0, t1, u0, step):
            u = real(rule, system, advance, t0, t1, u0, step)
            if t1 == 5.0:
                u[0] = 0.5 * np.eye(2)
            return u

        monkeypatch.setattr(moments, "collocate_to", squeezed)
        with pytest.raises(IntegrationFailure, match="unphysical state") as err:
            run_batch(BathSpec(kappa=1e-3).lyapunov_terms(THERMODYNAMIC), [5.0, 10.0])
        assert err.value.t_last == 5.0


class TestMarkovFrame:
    """The Markovian excess ``e`` in the isolated mode's frame, ``V = U (1 + e) U^T``."""

    def test_one_step_matches_the_closed_form_lyapunov_flow(self):
        # a constant system block [[0, p], [-q, 0]] and a thermal bath: one
        # step of length 3.5 against V(h) = F V(0) F^T + int_0^h F(s) D F(s)^T ds,
        # F = expm(Gamma s), from one expm of Van Loan's block matrix
        from scipy.linalg import expm

        (p, q), h, kappa, n_th = (1.3, 0.7), 3.5, 0.1, 1.0
        drift_base, diffusion = thermal_bath([kappa], [n_th])
        frame = MarkovFrame(drift_base, diffusion)
        m = frame.rule.nodes.size
        nodes, end, _ = frame.rule.collocate(np.full((m, 1), p), np.full((m, 1), q), h, np.eye(2)[None])
        _, commit = frame.advance(np.arange(1), 1e-10, 1e-12)(h, nodes, end)
        commit()
        got = moments._covariance(end, *frame.state())[0]
        gamma = drift_base[0] + np.array([[0.0, p], [-q, 0.0]])
        van_loan = expm(h * np.block([[-gamma, diffusion[0]], [np.zeros((2, 2)), gamma.T]]))
        flow = van_loan[2:, 2:].T
        want = flow @ flow.T + flow @ van_loan[:2, 2:]
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_rejects_a_bath_that_is_not_markovian(self):
        drift_base, diffusion = thermal_bath([0.1, 0.2], 1.0)
        for drift, noise in ((drift_base + [[0.0, 0.0], [0.0, -0.1]], diffusion), (drift_base, diffusion + [[0.0, 0.1], [0.1, 0.0]])):
            with pytest.raises(ValueError, match="Markovian frame"):
                MarkovFrame(drift, noise)

    @pytest.mark.parametrize(
        "g, tau, kappa, n_th", [(1.0, 300.0, 1e-3, 1.0), (0.9, 300.0, 0.1, 1.0), (0.9, 300.0, 1.0, 0.0), (1.0, 1000.0, 0.05, 2.0)]
    )
    def test_single_member_matches_the_runge_kutta_reference(self, g, tau, kappa, n_th):
        _, vs = run_batch(BathSpec(kappa=kappa, n_th=n_th).lyapunov_terms(THERMODYNAMIC), tau, g)
        tight = IntegratorSettings(rtol=1e-13, atol=1e-15)
        _, ref = moments.propagate_moments_batch(tau, g, 1.0, THERMODYNAMIC, kappa, n_th, settings=tight)
        assert np.max(np.abs(vs - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("r_n, bound", [(0.5, 1e-9), (1.25, 1e-11), (2.0, 1e-11)])
    def test_non_integer_ramps_match_the_runge_kutta_reference(self, r_n, bound):
        # g = 1 - (1 - s)^r_n has a branch point at s = 1 that no estimate
        # sees, so a non-integer ramp's error sits in its last step: 5.6e-10
        # of max|V| at r_n = 0.5 (8.2e-11 at 16 nodes), 2.9e-13 at r_n = 1.25
        # (5.0e-12); the quadratic ramp, smooth there, 1.1e-13 at both
        _, vs = run_batch(BathSpec(kappa=1e-3, n_th=1.0).lyapunov_terms(THERMODYNAMIC), 1e3, r_n=r_n)
        tight = IntegratorSettings(rtol=1e-13, atol=1e-15)
        _, ref = moments.propagate_moments_batch(1e3, 1.0, r_n, THERMODYNAMIC, 1e-3, 1.0, settings=tight)
        assert np.max(np.abs(vs - ref)) <= bound * np.max(np.abs(ref))

    def test_a_long_critical_ramp_takes_few_attempts(self, monkeypatch):
        # 24 Gauss nodes and no step cap: the cold bath of
        # critical_akz_zero_temperature.cfg at its tau_max takes 619 attempts,
        # where 16 nodes took 1,531 and 12 nodes under the cap 3.5 took 4,028
        controls = []

        class Counted(moments._StepControl):
            def __init__(self, *args):
                super().__init__(*args)
                controls.append(self)

        monkeypatch.setattr(moments, "_StepControl", Counted)
        run_batch(BathSpec(kappa=1e-4).lyapunov_terms(THERMODYNAMIC), 1e4)
        ((step,),) = (controls,)
        assert step.n_steps <= 800

    def test_isolated_member_is_the_open_members_u_u_t(self, monkeypatch):
        # the kappa = 0 member shares U with the open one and keeps e = 0
        finals, real = [], moments.collocate_to

        def collocate_to(*args):
            finals.append(real(*args))
            return finals[-1]

        monkeypatch.setattr(moments, "collocate_to", collocate_to)
        _, vs = run_batch(thermal_bath([0.0, 1e-2], 1.0), [60.0, 60.0])
        ((_, u_open),) = finals
        assert vs[-1, 0].tobytes() == (u_open @ u_open.T).tobytes()
        assert not np.array_equal(vs[-1, 1], vs[-1, 0])


class TestIntegrate:
    def test_no_drive_no_bath_keeps_vacuum(self):
        traj = integrate(QuenchProtocol(0.0, 50.0), samples=5)
        assert np.max(np.abs(traj.final - VACUUM)) < 1e-12

    def test_thermal_fixed_point(self):
        bath = BathSpec(kappa=1e-2, n_th=3.0)
        traj = integrate(QuenchProtocol(0.0, 2000.0), bath=bath, samples=0)
        assert observables_from_covariance(traj.final, 0.0)["n"] == pytest.approx(3.0, abs=1e-8)

    def test_thermalization_half_life(self):
        kappa = 1e-2
        bath = BathSpec(kappa=kappa, n_th=3.0)
        t_half = math.log(2.0) / kappa
        traj = integrate(QuenchProtocol(0.0, t_half), bath=bath, samples=0)
        assert observables_from_covariance(traj.final, 0.0)["n"] == pytest.approx(1.5, rel=0.05)

    def test_isolated_kz_ratio(self):
        # residual energy of critical ramps drops as tau^(-1/3)
        results = []
        for tau in (1e3, 1e4):
            traj = integrate(QuenchProtocol(1.0, tau), samples=0)
            rec = observables_from_covariance(traj.final, 1.0)
            results.append(rec["e_r"])
        ratio = results[0] / results[1]
        assert ratio == pytest.approx(10.0 ** (1.0 / 3.0), rel=0.10)

    def test_tolerance_tightening_reproducible(self):
        p = QuenchProtocol(1.0, 200.0)
        bath = BathSpec(kappa=1e-3, n_th=2.0)
        coarse = integrate(p, bath=bath, samples=0).final
        fine = integrate(p, bath=bath, settings=TIGHT, samples=0).final
        np.testing.assert_allclose(coarse, fine, rtol=1e-8, atol=0.0)

    def test_saturation_of_open_residual_energy(self):
        # once kappa tau >> 1 a gapped endpoint reaches its steady state
        # and the final excess stops growing with the quench time
        bath = BathSpec.from_temperature(kappa=1e-2, temperature=10.0, omega=1.0)
        values = []
        for tau in (1e3, 1e4):
            traj = integrate(QuenchProtocol(0.75, tau), bath=bath, samples=0)
            values.append(observables_from_covariance(traj.final, 0.75)["e_r"])
        assert abs(values[1] - values[0]) / values[0] < 0.05


class TestAgainstFockDynamics:
    def test_driven_dissipative_ramp(self):
        # oracle: dense density-matrix propagation of the same master
        # equation in a truncated number basis
        g_f, tau, kappa, n_th = 0.6, 12.0, 0.05, 0.5
        n_ref, x2_ref, p2_ref = propagate_master_equation(g_f, tau, kappa, n_th, cutoff=60)
        traj = integrate(QuenchProtocol(g_f, tau), bath=BathSpec(kappa=kappa, n_th=n_th), samples=0)
        v = traj.final
        assert observables_from_covariance(v, g_f)["n"] == pytest.approx(n_ref, abs=1e-8)
        assert v[0, 0] == pytest.approx(x2_ref, abs=1e-8)
        assert v[1, 1] == pytest.approx(p2_ref, abs=1e-8)

    def test_isolated_ramp(self):
        g_f, tau = 0.8, 9.0
        n_ref, x2_ref, p2_ref = propagate_master_equation(g_f, tau, 0.0, 0.0, cutoff=60)
        v = integrate(QuenchProtocol(g_f, tau), samples=0).final
        assert observables_from_covariance(v, g_f)["n"] == pytest.approx(n_ref, abs=1e-8)
        assert v[0, 0] == pytest.approx(x2_ref, abs=1e-8)


class TestInvariants:
    @pytest.mark.parametrize("protocol", [
        QuenchProtocol(1.0, 300.0, 1.0),
        QuenchProtocol(0.75, 300.0, 1.0),
        QuenchProtocol(1.0, 300.0, 0.5),
        QuenchProtocol(1.0, 300.0, 2.0),
    ])
    def test_purity_preserved_when_isolated(self, protocol):
        traj = integrate(protocol, samples=61)
        purity = np.linalg.det(traj.vs) / 4.0  # sigma^2 - |sigma10|^2
        assert np.max(np.abs(purity - 0.25)) < 1e-8

    def test_heisenberg_bound_open_dynamics(self):
        bath = BathSpec.from_temperature(kappa=1e-3, temperature=10.0, omega=1.0)
        traj = integrate(QuenchProtocol(1.0, 500.0), bath=bath, samples=101)
        obs = observables_from_covariance(traj.vs, traj.protocol.coupling(traj.ts))
        assert np.all(obs["dx"] * obs["dp"] >= 1.0 - 1e-9)

    @pytest.mark.parametrize("kind", [ModelKind.QRM, ModelKind.LMG])
    def test_large_size_reduces_to_thermodynamic(self, kind):
        p = QuenchProtocol(1.0, 50.0)
        big = ModelSpec(kind=kind, eta=1e9)
        traj_fs = integrate(p, model=big, samples=11)
        traj_th = integrate(p, samples=11)
        assert np.max(np.abs(traj_fs.vs - traj_th.vs)) < 1e-6


class TestObservables:
    def test_vacuum(self):
        rec = observables_from_covariance(VACUUM, 0.0)
        assert rec["n"] == 0.0
        assert rec["dx"] == 1.0 and rec["dp"] == 1.0
        assert rec["energy"] == 0.0 and rec["e_r"] == 0.0

    def test_direct_substitution(self):
        rec = observables_from_covariance(7.0 * np.eye(2), 0.0)
        assert rec["n"] == 3.0
        assert rec["dx"] == pytest.approx(math.sqrt(7.0), rel=1e-15)
        assert rec["dp"] == pytest.approx(math.sqrt(7.0), rel=1e-15)
        assert rec["energy"] == pytest.approx(3.0, abs=1e-15)

    def test_ground_state_has_zero_residual_energy(self):
        g = 0.6
        rec = observables_from_covariance(ground_state_covariance(g), g)
        assert abs(rec["e_r"]) < 1e-10
        assert rec["energy"] == pytest.approx(ground_state_energy(1.0, g), abs=1e-12)

    def test_small_negative_radicand_clamped(self):
        rec = observables_from_covariance(np.diag([-2e-12, 2.0 + 2e-12]), 0.0)
        assert rec["dx"] == 0.0

    def test_large_negative_radicand_rejected(self):
        with pytest.raises(PhysicalityError):
            observables_from_covariance(np.diag([-0.2, 2.2]), 0.0)

    def test_coupling_validated(self):
        with pytest.raises(DomainError):
            observables_from_covariance(VACUUM, 1.5)

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -1e-300, math.nan])
    def test_coupling_array_validated(self, bad):
        # one entry outside [0, 1] rejects the whole stack
        with pytest.raises(DomainError, match=r"coupling g must lie in \[0, 1\]"):
            observables_from_covariance(np.stack([VACUUM] * 3), np.array([0.2, bad, 1.0]))

    def test_stack_equals_each_matrix_alone(self):
        # (S, B, 2n, 2n) with a coupling per member: bit for bit the
        # values of each matrix taken alone
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 4, 6, 6))
        vs = m @ m.swapaxes(-1, -2) + np.eye(6)
        gs = np.array([0.0, 0.3, 0.9, 1.0])
        stack = observables_from_covariance(vs, gs, 1.5)
        assert list(stack) == ["n", "dx", "dp", "energy", "e_r"]
        for s in range(3):
            for b in range(4):
                alone = observables_from_covariance(vs[s, b], gs[b], 1.5)
                for name, value in alone.items():
                    assert stack[name].shape == (3, 4)
                    assert stack[name][s, b].tobytes() == np.float64(value).tobytes(), (name, s, b)


def thermal_steady_state(bath, g):
    return steady_state_covariance(THERMODYNAMIC, g, *thermal_bath(bath.kappa, bath.n_th))


class TestSteadyState:
    def test_is_fixed_point_of_moment_rhs(self):
        bath = BathSpec(kappa=5e-2, n_th=2.0)
        for g in (0.0, 0.4, 0.9):
            v = thermal_steady_state(bath, g)
            d_v = rhs_at(v, 1.0, QuenchProtocol(g, 1.0), bath=bath)
            assert np.max(np.abs(d_v)) < 1e-13 * max(np.max(np.abs(v)), 1.0)

    def test_matches_long_time_integration(self):
        # the ramped state lags the quasi-static solution by g_dot/kappa,
        # so the endpoint comparison is at that accuracy level only
        bath = BathSpec(kappa=5e-2, n_th=2.0)
        sigma, s10 = moments_of(thermal_steady_state(bath, 0.6))
        traj = integrate(QuenchProtocol(0.6, 5000.0), bath=bath, samples=0)
        sigma_t, s10_t = moments_of(traj.final)
        assert sigma_t == pytest.approx(sigma, rel=5e-3)
        assert s10_t.real == pytest.approx(s10.real, abs=5e-3)

    def test_uncoupled_thermal_value(self):
        v = thermal_steady_state(BathSpec(kappa=1e-3, n_th=3.0), 0.0)
        np.testing.assert_allclose(v, 7.0 * np.eye(2), rtol=1e-12, atol=1e-12)

    def test_requires_dissipation(self):
        with pytest.raises(DomainError):
            thermal_steady_state(BathSpec(kappa=0.0), 0.5)


class TestTrajectoryDump:
    def test_roundtrip_tsv(self, tmp_path):
        traj = integrate(QuenchProtocol(0.9, 20.0), bath=BathSpec(kappa=0.01, n_th=1.0), samples=7)
        path = tmp_path / "traj.tsv"
        write_trajectory(path, traj)
        rows = path.read_text().strip().split("\n")
        header = rows[0].split("\t")
        assert header == ["t", "g", "v_qq", "v_pp", "v_qp", "n", "dx", "dp", "e_r"]
        assert len(rows) == 8
        last = [float(v) for v in rows[-1].split("\t")]
        assert last[0] == 20.0
        # 17 significant digits round-trip
        assert last[2:5] == [traj.final[0, 0], traj.final[1, 1], traj.final[0, 1]]

    def test_csv_delimiter(self, tmp_path):
        traj = integrate(QuenchProtocol(0.5, 10.0), samples=3)
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        assert "," in path.read_text().split("\n")[1]

    def test_unknown_extension_rejected(self, tmp_path):
        traj = integrate(QuenchProtocol(0.5, 10.0), samples=3)
        with pytest.raises(ValueError):
            write_trajectory(tmp_path / "traj.dat", traj)


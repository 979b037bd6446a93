"""Gaussian covariance propagation under the driven Lindblad equation.

A zero-mean Gaussian state is fully described by its symmetrized
quadrature covariance ``V_jk = <x_j x_k + x_k x_j>`` over
``x = (q_1..q_n, p_1..p_n)``, system mode first with
``a = (q_1 + i p_1)/sqrt(2)``; the vacuum is ``V = I``.  Every
environment here is linear, so V obeys the Lyapunov equation

    dV/dt = Gamma(t) V + V Gamma(t)^T + D.

The drift ``Gamma`` is a bath-dependent base plus the system block of
``J H(g)``: with the model's quadrature form
``H = (h_qq q^2 + h_pp p^2)/2`` only ``Gamma[p_1, q_1] = -h_qq(g)`` and
``Gamma[q_1, p_1] = h_pp(g)`` move with the ramped coupling.  The
Markovian thermal bath (jump rates ``kappa (n_th + 1)`` on a and
``kappa n_th`` on a^dag) is the one-mode case,

    Gamma = J H(g) - (kappa/2) I,    D = kappa (2 n_th + 1) I,

on the 2x2 covariance of the system mode alone; the structured bath
(:mod:`critquench.auxbath`) appends a chain of damped oscillators with
its own drift base and diffusion.

Both baths run on one engine, :func:`propagate_batch`, and supply only
their terms, clock and stability rate.  A sweep is one vectorized batch
whose members (quench times, couplings, ramp shapes, sizes, and the
isolated and open legs, the isolated block at ``kappa = 0``) share one
adaptive step sequence, which keeps thousand-point sweeps fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import model as model_mod
from ._ode import DEFAULT_SETTINGS, IntegratorSettings, solve_to
from .errors import DomainError, IntegrationFailure, PhysicalityError
from .model import ModelSpec
from .protocol import QuenchProtocol, ramp_profile

if TYPE_CHECKING:
    from .auxbath import AuxBathParams

#: Radicand values and eigenvalues of ``V + iJ`` above this (negative)
#: floor count as rounding; radicands are clamped to zero.
PHYSICALITY_TOL = 1e-10


@dataclass(frozen=True)
class BathSpec:
    """Markovian thermal bath: overall rate kappa and occupation n_th.

    Both bath types answer ``is_isolated``, ``lyapunov_terms(model)`` and
    ``propagate(...)`` (see :class:`critquench.auxbath.AuxBathParams`),
    so no caller needs to know which one it holds.
    """

    kappa: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        if not self.kappa >= 0.0:
            raise DomainError(f"kappa must be nonnegative, got {self.kappa}")
        if not self.n_th >= 0.0:
            raise DomainError(f"n_th must be nonnegative, got {self.n_th}")

    @classmethod
    def from_temperature(cls, kappa: float, temperature: float, omega: float = 1.0):
        """Build from a temperature in units of omega; T = 0 skips the exponential.

        Past the range of ``expm1`` (``omega / temperature`` above about
        709.78) the Bose occupation is below ``1 / DBL_MAX`` and is taken
        as 0.
        """
        if temperature < 0.0:
            raise DomainError(f"temperature must be nonnegative, got {temperature}")
        try:
            n_th = 0.0 if temperature == 0.0 else 1.0 / math.expm1(omega / temperature)
        except OverflowError:
            n_th = 0.0
        return cls(kappa=kappa, n_th=n_th)

    @property
    def is_isolated(self) -> bool:
        return self.kappa == 0.0

    def lyapunov_terms(self, model: ModelSpec):
        """Drift base and diffusion of the system mode (:func:`thermal_bath`)."""
        return thermal_bath(self.kappa, self.n_th)

    def propagate(
        self, tau_q, g_final, r_n, model: ModelSpec, settings=DEFAULT_SETTINGS, s_samples=None, kappa=None, eta=None
    ):
        """``(s_times, V)`` of a batch of quenches, V of shape (S, B, 2, 2).

        ``kappa`` (default: the bath's) and ``eta`` (default: the
        model's size) may be per member.
        """
        return propagate_moments_batch(
            tau_q, g_final, r_n, model, self.kappa if kappa is None else kappa, self.n_th,
            eta=eta, settings=settings, s_samples=s_samples,
        )


ISOLATED = BathSpec()


def broadcast_members(*params) -> list[np.ndarray]:
    """Per-member sweep parameters, broadcast to one common 1-d length."""
    arrs = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in params))
    return [np.ascontiguousarray(a) for a in arrs]


def thermal_bath(kappa, n_th):
    """Markovian thermal bath as drift base and diffusion of the system mode.

    Returns ``(-(kappa/2) I, kappa (2 n_th + 1) I)``, 2x2 matrices
    stacked along the broadcast shape of ``kappa`` and ``n_th``.
    """
    kappa, n_th = np.broadcast_arrays(np.asarray(kappa, dtype=float), np.asarray(n_th, dtype=float))
    eye = np.eye(2)
    return -0.5 * kappa[..., None, None] * eye, (kappa * (2.0 * n_th + 1.0))[..., None, None] * eye


def symplectic_form(n_modes: int) -> np.ndarray:
    """J = [[0, I], [-I, 0]] in the (q..., p...) ordering."""
    j = np.zeros((2 * n_modes, 2 * n_modes))
    j[:n_modes, n_modes:] = np.eye(n_modes)
    j[n_modes:, :n_modes] = -np.eye(n_modes)
    return j


def physicality_defect(v: np.ndarray, j: np.ndarray):
    """Most negative eigenvalue of V + iJ (>= 0 for physical states), per matrix of a stack.

    Taken from the real symmetric embedding ``[[V, -J], [J, V]]``, which
    has every eigenvalue of the Hermitian ``V + iJ`` twice, so only the
    real symmetric eigensolver is needed.
    """
    v = np.asarray(v, dtype=float)
    d = v.shape[-1]
    embedding = np.empty(v.shape[:-2] + (2 * d, 2 * d))
    embedding[..., :d, :d] = v
    embedding[..., d:, d:] = v
    embedding[..., d:, :d] = j
    embedding[..., :d, d:] = -j
    return np.linalg.eigvalsh(embedding)[..., 0]


def set_system_block(drift: np.ndarray, model: ModelSpec, g, eta=None) -> np.ndarray:
    """Write the ramped system block of ``J H(g)`` into ``drift`` in place.

    ``drift`` is one matrix or a stack over members (then ``g`` and
    ``eta`` broadcast over the stack); returns it for chaining.  Used at
    a frozen coupling (:func:`steady_state_covariance`, and the
    structured bath's step cap in
    :func:`critquench.auxbath.propagate_covariance_batch`); a
    propagation writes the same block from the coefficient table itself
    (:func:`lyapunov_batch_rhs`).
    """
    n = drift.shape[-1] // 2
    h_qq, h_pp = model_mod.quadrature_form(model, g, eta=eta)
    np.negative(h_qq, out=drift[..., n, 0])
    drift[..., 0, n] = h_pp
    return drift


def _horner(coeffs, x, out) -> None:
    """``coeffs[0] + x coeffs[1] + x^2 coeffs[2] + ...`` written into ``out``."""
    np.multiply(coeffs[-1], x, out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= x
    out += coeffs[0]


def lyapunov_batch_rhs(drift_base, diffusion, model: ModelSpec, tau_q, g_final, r_n, eta=None, end=1.0, frozen=False):
    """``dV/du = (tau_q / end) (Gamma(s) V + V Gamma(s)^T + D)`` for a batch of covariances.

    Each member reads its ramp at its own clock ``s = u / end`` of the
    solver's one time ``u``, rescaled time at ``end = 1`` (the default)
    and physical time at ``end = tau_q`` (see :func:`propagate_batch`).
    The rate ``tau_q / end`` is folded in once, here, into a drift
    buffer holding ``drift_base`` (one matrix, or one per member), into
    the diffusion and into the coefficients of
    :func:`critquench.model.quadrature_coefficients`.  The table also
    absorbs ``g_final^2`` per power of ``g^2``, and, for a member whose
    ramp is linear, ``1 / end^2``: its ``g^2 = g_final^2 u^2 / end^2``.
    A call evaluates the ramped entries by Horner's rule at
    ``X = u^2``, a float when every ramp is linear; otherwise ``X`` is
    per member, ``ramp(s)^2``, and ``u^2`` for the linear members, so a
    linear member gets the same bits in a mixed batch as alone.  It
    writes only those entries: ``Gamma[p_1, q_1] = -rate h_qq``, and
    ``Gamma[q_1, p_1] = rate h_pp`` where ``h_pp`` moves with the
    coupling (LMG); a constant ``h_pp`` is written once.  No other entry
    is touched, so the result depends on ``(u, V)`` only.  V must be
    symmetric, as ``V Gamma^T`` is taken as ``(Gamma V)^T``; the output
    is a fresh, exactly symmetric array, so a flow started from a
    symmetric V stays exactly symmetric through every Runge-Kutta
    stage.  ``tau_q``, ``g_final``, ``r_n``, ``eta`` and ``end`` are per
    member.  With ``frozen``, the output is zero on the chain block
    (every mode but the system mode, in both indices), so the stages
    hold that block fixed and :func:`chain_flow` advances it.
    """
    rate = tau_q / end
    drift, diffusion = rate[:, None, None] * drift_base, rate[:, None, None] * diffusion
    a, b = model_mod.quadrature_coefficients(model, eta)
    n = drift.shape[-1] // 2
    linear = np.asarray(r_n) == 1.0
    x_scale = g_final * g_final / np.where(linear, end * end, 1.0)
    # (coefficients, entry) of each ramped entry; a coefficient that is
    # zero for every member is dropped, and a constant entry written once
    ramped = []
    for coeffs, entry in (([-c * rate for c in a], drift[:, n, 0]), ([c * rate for c in b], drift[:, 0, n])):
        while len(coeffs) > 1 and not np.any(coeffs[-1]):
            coeffs.pop()
        if len(coeffs) == 1:
            entry[...] = coeffs[0]
        else:
            ramped.append(([c * x_scale**k for k, c in enumerate(coeffs)], entry))
    m = np.empty_like(drift)
    all_linear, ramp = bool(linear.all()), ramp_profile(r_n)
    keep = None
    if frozen:
        keep = np.ones(drift.shape[-2:])
        _by_mode(keep)[:, 1:, :, 1:] = 0.0

    def rhs(u, v):
        x = u * u if all_linear else np.where(linear, u * u, np.square(ramp(u / end)))
        for coeffs, entry in ramped:
            _horner(coeffs, x, entry)
        np.matmul(drift, v, out=m)
        out = m + m.swapaxes(-1, -2)
        out += diffusion
        if keep is not None:
            out *= keep
        return out

    return rhs


def _by_mode(a: np.ndarray) -> np.ndarray:
    """A view of a stack of (2n, 2n) matrices as (..., 2, n, 2, n): (quadrature, mode) per index.

    Mode 0 is the system mode, so ``[..., 1:, :, 1:]`` is the chain block
    (every other mode, in both indices) and ``[..., 1:, :, 0]`` the
    chain-system cross block.  Splitting an axis never copies, so writes
    through the view reach ``a``.
    """
    n = a.shape[-1] // 2
    return a.reshape(*a.shape[:-2], 2, n, 2, n)


def chain_flow(drift_base, diffusion, rate):
    """Exact flow of a batch's chain block over one step, as a ``subflow`` for :func:`solve_to`.

    The chain block ``C`` of V (every mode but the system mode, in both
    indices) obeys ``dC/du = G C + C G^T + D_cc + K X^T + X K^T``, where
    ``G = rate Gamma_cc``, ``K = rate Gamma[chain, system]`` and
    ``X = V[chain, system]`` is the cross block; no coefficient moves
    with the coupling.  The chain's vacuum must be stationary,
    ``G + G^T + rate D_cc = 0``, as it is exactly for every chain
    :func:`critquench.auxbath.build_system` writes.  Then ``E = C - I``
    obeys ``dE/du = G E + E G^T + F`` with ``F = K X^T + X K^T``, and,
    holding F at its value at the step's end, the flow over a step of
    length ``h`` is exact:

        E <- Phi_h (E + L) Phi_h^T - L,   Phi_h = exp(h G),   G L + L G^T = F.

    ``Phi_h`` comes from one eigendecomposition of G, and L from the
    inverse of the Lyapunov operator on the row-major ``vec`` of the
    block, both computed once.  Every member must share G.  Returns
    ``subflow(t, t_new, v)``, which updates the batch ``v`` in place
    and leaves C exactly symmetric; a member without forcing (``K = 0``)
    keeps ``C = I`` exactly.
    """
    b, dim = drift_base.shape[:2]
    m = dim - 2
    r = np.asarray(rate, dtype=float)[:, None, None]
    gamma = r * _by_mode(drift_base)[:, :, 1:, :, 1:].reshape(b, m, m)
    if np.any(gamma != gamma[:1]):
        raise ValueError("the members of a frozen-chain batch must share one chain drift")
    if np.any(gamma + gamma.swapaxes(-1, -2) + r * _by_mode(diffusion)[:, :, 1:, :, 1:].reshape(b, m, m)):
        raise ValueError("a frozen chain needs a stationary vacuum: Gamma_cc + Gamma_cc^T + D_cc = 0")
    gamma, eye = gamma[0], np.eye(m)
    k = r * _by_mode(drift_base)[:, :, 1:, :, 0].reshape(b, m, 2)
    # Phi_h = Re sum_k exp(h lam_k) P[:, k] P^-1[k, :] is one real product
    # with the (re, im) pairs of exp(h lam).  P^-1 is read off the inverse of
    # P's real form [[Re, -Im], [Im, Re]]: a complex inverse maps 0.4 MB
    # more of LAPACK into every structured run.
    lam, vecs = np.linalg.eig(gamma)
    real_inv = np.linalg.inv(np.block([[vecs.real, -vecs.imag], [vecs.imag, vecs.real]]))
    outer = vecs.T[:, :, None] * (real_inv[:m, :m] + 1j * real_inv[m:, :m])[:, None, :]
    expand = np.stack([outer.real, -outer.imag], axis=1).reshape(2 * m, m * m).T
    # row-major vec(L) = vec(F) @ lyapunov_inv.T, and F = K X^T + (K X^T)^T
    # is vec(K X^T) @ (1 + transpose).T
    lyapunov_inv = np.linalg.inv(np.kron(gamma, eye) + np.kron(eye, gamma))
    transpose = np.eye(m * m).reshape(m, m, m, m).swapaxes(2, 3).reshape(m * m, m * m)
    weights = (lyapunov_inv @ (np.eye(m * m) + transpose)).T

    def subflow(t, t_new, v):
        phi = (expand @ np.exp((t_new - t) * lam).view(float)).reshape(m, m)
        modes = _by_mode(v)
        block = modes[:, :, 1:, :, 1:]
        kx = k @ modes[:, :, 1:, :, 0].reshape(b, m, 2).swapaxes(-1, -2)
        lyap = (kx.reshape(b, -1) @ weights).reshape(kx.shape)
        a = block.reshape(b, m, m) - eye
        a += lyap
        a = np.matmul(phi, (a.reshape(-1, m) @ phi.T).reshape(a.shape))
        a -= lyap
        block[...] = (eye + 0.5 * (a + a.swapaxes(-1, -2))).reshape(block.shape)

    return subflow


def propagate_moments_batch(
    tau_q,
    g_final,
    r_n,
    model: ModelSpec,
    kappa,
    n_th,
    eta=None,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    s_samples=None,
):
    """Propagate many Markovian quenches at once from the vacuum ``V = I``.

    All parameter arguments broadcast against each other; ``eta``
    defaults to the model's size but may be an array for size sweeps.
    ``kappa`` and ``n_th`` are per member, so one batch may hold
    isolated (``kappa = 0``) and open members side by side.  Returns
    ``(s_times, V)`` with V of shape (S, B, 2, 2).
    """
    tau, g_f, r_n, eta, kappa, n_th = broadcast_members(
        tau_q, g_final, r_n, model.eta if eta is None else eta, kappa, n_th
    )
    drift_base, diffusion = thermal_bath(kappa, n_th)
    rate = max(2.5 * model.omega, float(np.max(kappa)))
    return propagate_batch(drift_base, diffusion, model, tau, 1.0, g_f, r_n, eta, rate, settings, s_samples)


def propagate_batch(
    drift_base, diffusion, model: ModelSpec, tau, end, g_f, r_n, eta, rate, settings=DEFAULT_SETTINGS, s_samples=None
):
    """The one Lyapunov engine: propagate a batch from the vacuum ``V = I``.

    A bath supplies its terms (``drift_base`` and ``diffusion``, one per
    member), its clock ``end`` and its stability ``rate``.  A member's
    ramp ends at solver time ``end``: 1 in rescaled time, ``tau`` in
    physical time.  One :func:`solve_to` call runs to each distinct end,
    and the members ending there leave; the step cap is
    ``3.5 / (rate * max(tau / end))``.  The clock is per bath: in
    physical time the damped chain bounds the step alike for every
    member, but a Markovian batch is limited by accuracy early on
    (``critical_akz_zero_temperature.cfg``: 11 solves and 9,379 attempts,
    against one solve of 7,366 in rescaled time).  A network with more
    than the system mode (the structured bath's chain) has its chain
    block frozen in the stages (``lyapunov_batch_rhs(..., frozen=True)``)
    and advanced exactly once per accepted step by :func:`chain_flow`,
    the ``subflow`` of every ``solve_to`` call; the bath's ``rate`` then
    only has to bound the blocks the stages integrate.  A Markovian
    batch has no chain and builds no sub-flow.  A member ending with
    an eigenvalue of ``V + iJ`` below ``-(PHYSICALITY_TOL + rtol max|V|)``
    raises :class:`IntegrationFailure` at its end.  Returns ``(s_times, V)``, V of shape (S, B, 2n, 2n),
    member ``b`` sampled at ``s end_b``; sampling needs one end.
    """
    ends = np.broadcast_to(end, tau.shape)
    stops = sorted(set(ends.tolist()))
    if s_samples is not None and len(stops) > 1:
        raise ValueError("sampling needs members of one quench time")
    cap = 3.5 / (rate * float(np.max(tau / end)))
    settings = replace(settings, max_step=min(settings.max_step, cap))
    t_samples = None if s_samples is None else np.asarray(s_samples, dtype=float) * stops[0]

    v = np.broadcast_to(np.eye(drift_base.shape[-1]), drift_base.shape).copy()
    frozen = drift_base.shape[-1] > 2  # a chain beside the system mode
    active, start = np.arange(tau.size), 0.0
    for stop in stops:
        # a shared end stays the scalar it is, so its RHS divides by no array
        clock = end if np.ndim(end) == 0 else ends[active]
        terms = drift_base[active], diffusion[active]
        rhs = lyapunov_batch_rhs(
            *terms, model, tau[active], g_f[active], r_n[active], eta[active], clock, frozen=frozen
        )
        flow = replace(settings, subflow=chain_flow(*terms, tau[active] / clock) if frozen else None)
        ts, vs = solve_to(rhs, start, stop, v[active], settings=flow, t_samples=t_samples)
        v[active] = vs[-1]
        active, start = active[ends[active] > stop], stop

    # a defect within the error control of the flow is not a fault: loose
    # tolerances leave a pure state up to about rtol |V| below the bound
    floor = PHYSICALITY_TOL + settings.rtol * np.max(np.abs(v), axis=(-2, -1))
    defect = physicality_defect(v, symplectic_form(v.shape[-1] // 2))
    worst = int(np.argmin(defect + floor))
    if defect[worst] < -floor[worst]:
        message = f"unphysical state: V + iJ has eigenvalue {defect[worst]:.3g} below -{floor[worst]:.3g}"
        raise IntegrationFailure(message, t_last=float(ends[worst]))
    if t_samples is None:
        return np.ones(1), v[None]
    return ts / stops[0], vs


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Sampled covariance history ``vs`` (S, 2n, 2n) of one quench."""

    ts: np.ndarray
    vs: np.ndarray
    protocol: QuenchProtocol
    model: ModelSpec

    @property
    def final(self) -> np.ndarray:
        return self.vs[-1]


def integrate(
    protocol: QuenchProtocol,
    model: ModelSpec = model_mod.THERMODYNAMIC,
    bath: BathSpec | AuxBathParams = ISOLATED,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    samples: int = 201,
) -> CovarianceTrajectory:
    """Propagate one quench from the vacuum ``V = I`` and sample it uniformly.

    ``bath`` is a :class:`BathSpec` or a structured bath's oscillator
    table; the chain then starts in its own vacuum, uncoupled from the
    system, which is not the ground state of the coupled network.  The
    final state is reproducible to better than 1e-8 relative under a
    hundredfold tolerance tightening (verified in the test suite).
    """
    s_samples = np.linspace(0.0, 1.0, samples) if samples and samples > 1 else None
    ss, vs = bath.propagate(
        protocol.tau_q, protocol.g_final, protocol.r_n, model, settings=settings, s_samples=s_samples
    )
    return CovarianceTrajectory(ts=ss * protocol.tau_q, vs=vs[:, 0], protocol=protocol, model=model)


def observables_from_covariance(v, g, omega: float = 1.0) -> dict[str, np.ndarray]:
    """Observables of the system mode from covariances ``(..., 2n, 2n)`` at coupling g.

    Returns ``{"n", "dx", "dp", "energy", "e_r"}``, each of the leading
    shape of ``v``; ``g`` in [0, 1] broadcasts against it.
    ``dx^2 = V[q1, q1]`` and ``dp^2 = V[p1, p1]`` in the ``x = a + a^dag``
    convention, ``n = (dx^2 + dp^2)/4 - 1/2``.  The energy uses the
    single-mode normal-phase Hamiltonian, and ``e_r`` is its excess over
    :func:`critquench.model.ground_state_energy`, nonnegative for every
    physical state (it equals ``(w/4)[(1-g^2) dx^2 + dp^2] - (w/2)
    sqrt(1-g^2)``, bounded below by zero through the uncertainty
    relation).  Clamps rounding-level negative variances.
    """
    e_0 = model_mod.ground_state_energy(omega, g)  # checks g in [0, 1]
    v = np.asarray(v, dtype=float)
    n_modes = v.shape[-1] // 2
    x2 = v[..., 0, 0]
    p2 = v[..., n_modes, n_modes]
    low = min(float(np.min(x2)), float(np.min(p2)))
    if low < -PHYSICALITY_TOL:
        raise PhysicalityError(f"negative quadrature variance {low}")
    n = 0.25 * (x2 + p2) - 0.5
    x2 = np.maximum(x2, 0.0)
    p2 = np.maximum(p2, 0.0)
    energy = omega * n - 0.25 * g * g * omega * x2
    return {"n": n, "dx": np.sqrt(x2), "dp": np.sqrt(p2), "energy": energy, "e_r": energy - e_0}


def steady_state_covariance(model: ModelSpec, g: float, drift_base, diffusion) -> np.ndarray:
    """Fixed point of the Lyapunov flow at frozen coupling g.

    Solves ``Gamma(g) V + V Gamma(g)^T + D = 0`` for a bath given as
    drift base and diffusion (``bath.lyapunov_terms(model)`` of either
    bath type).  Requires a strictly damped drift: the isolated flow
    (kappa = 0) has no attracting fixed point, and a bath that shifts
    the critical point leaves a growing mode near ``g = 1``.
    """
    from scipy.linalg import solve_continuous_lyapunov

    model_mod._check_coupling(g)
    drift = set_system_block(np.array(drift_base, dtype=float), model, g)
    growth = float(np.max(np.linalg.eigvals(drift).real)) + 0.0  # + 0.0 turns -0.0 into 0 for the message
    if not growth < 0.0:
        raise DomainError(
            f"steady state requires a strictly damped drift, but at g = {g:g} its largest eigenvalue"
            f" real part is {growth:.3g}"
        )
    return solve_continuous_lyapunov(drift, -np.asarray(diffusion))


TRAJECTORY_COLUMNS = ("t", "g", "v_qq", "v_pp", "v_qp", "n", "dx", "dp", "e_r")


def trajectory_delimiter(path) -> str:
    """Delimiter of a trajectory table from its extension: .tsv tab, .csv comma."""
    path = str(path)
    if path.endswith(".tsv"):
        return "\t"
    if path.endswith(".csv"):
        return ","
    raise ValueError("trajectory path must end in .tsv or .csv")


def write_trajectory(path, trajectory: CovarianceTrajectory) -> None:
    """Dump a sampled trajectory as a delimited text table.

    The ``v_*`` columns are the system block of the covariance.  The
    delimiter follows the file extension (:func:`trajectory_delimiter`);
    all values carry 17 significant digits.
    """
    sep = trajectory_delimiter(path)
    vs = trajectory.vs
    n_modes = vs.shape[-1] // 2
    g = trajectory.protocol.coupling(trajectory.ts)
    obs = observables_from_covariance(vs, g, trajectory.model.omega)
    columns = np.column_stack(
        [trajectory.ts, g, vs[:, 0, 0], vs[:, n_modes, n_modes], vs[:, 0, n_modes]]
        + [obs[name] for name in TRAJECTORY_COLUMNS[5:]]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sep.join(TRAJECTORY_COLUMNS) + "\n")
        for row in columns:
            fh.write(sep.join(f"{v:.17g}" for v in row) + "\n")

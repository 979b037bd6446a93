"""Gaussian covariance propagation under the driven Lindblad equation.

A zero-mean Gaussian state is fully described by its symmetrized
quadrature covariance ``V_jk = <x_j x_k + x_k x_j>`` over
``x = (q_1, p_1, q_2, p_2, ..., q_n, p_n)``, mode by mode, system mode
first with ``a = (q_1 + i p_1)/sqrt(2)``; the vacuum is ``V = I``.
Every network is built in this one order and integrated as built, so
the system mode sits at indices (0, 1) for any n.  Every environment
here is linear, so V obeys the Lyapunov equation

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
their terms, clock and stability rate; the right-hand sides and the
exact chain sub-flow it hands to the stepper are in
:mod:`critquench._flows`.  A sweep is one vectorized batch
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
from ._flows import chain_flow, lyapunov_batch_rhs, system_columns_rhs
from ._ode import DEFAULT_SETTINGS, IntegratorSettings, solve_to
from .errors import DomainError, IntegrationFailure, PhysicalityError
from .model import ModelSpec
from .protocol import QuenchProtocol

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
    def from_temperature(cls, kappa: float, temperature: float, omega: float):
        """Build from a temperature in the units ``omega`` is given in; T = 0 skips the exponential.

        ``omega`` is the model's mode frequency (``model.omega``), whose
        Bose occupation the bath holds.  Past the range of ``expm1``
        (``omega / temperature`` above about 709.78) the occupation is
        below ``1 / DBL_MAX`` and is taken as 0.
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


def symplectic_form(n: int) -> np.ndarray:
    """J of n modes in the mode-by-mode order: one ``[[0, 1], [-1, 0]]`` block per mode."""
    return np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])


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
    """Write the ramped entries ``drift[1, 0] = -h_qq`` and ``drift[0, 1] = h_pp`` of ``J H(g)`` in place.

    ``drift`` is one matrix or a stack over members (then ``g`` and
    ``eta`` broadcast over the stack); returns it for chaining.  Used at
    a frozen coupling (:func:`steady_state_covariance`, and the
    structured bath's step cap in
    :func:`critquench.auxbath.propagate_covariance_batch`); a
    propagation writes the same block from the coefficient table itself
    (:func:`lyapunov_batch_rhs`, :func:`system_columns_rhs`).
    """
    h_qq, h_pp = model_mod.quadrature_form(model, g, eta=eta)
    np.negative(h_qq, out=drift[..., 1, 0])
    drift[..., 0, 1] = h_pp
    return drift


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
    against one solve of 7,366 in rescaled time).  The state of every
    batch is the pair of its system columns ``W = V[:, :, :2]`` (B, N, 2),
    which :func:`solve_to` integrates, and its chain block
    ``C = V[:, 2:, 2:]``, one contiguous array beside W; a Markovian
    batch is the case N = 2, where W is V and C is empty.  The right-hand
    side is the one choice the size makes: at N = 2
    :func:`lyapunov_batch_rhs` on V itself, otherwise
    :func:`system_columns_rhs` on W (20 numbers per member of a
    4-oscillator chain instead of 100), with C advanced exactly once per
    accepted step by :func:`chain_flow`, the ``subflow`` of every
    ``solve_to`` call; the bath's ``rate`` then only has to bound the
    blocks the stages integrate.  V is rebuilt, exactly symmetric, at
    the end and at every sample time.  A member ending with an
    eigenvalue of ``V + iJ`` below ``-(PHYSICALITY_TOL + rtol max|V|)``
    raises :class:`IntegrationFailure` at its end.  Returns
    ``(s_times, V)``, V of shape (S, B, N, N), member ``b`` sampled at
    ``s end_b``; sampling needs one end.
    """
    ends = np.broadcast_to(end, tau.shape)
    stops = sorted(set(ends.tolist()))
    if s_samples is not None and len(stops) > 1:
        raise ValueError("sampling needs members of one quench time")
    cap = 3.5 / (rate * float(np.max(tau / end)))
    settings = replace(settings, max_step=min(settings.max_step, cap))
    t_samples = None if s_samples is None else np.asarray(s_samples, dtype=float) * stops[0]

    dim = drift_base.shape[-1]
    state = np.zeros(tau.shape + (dim, 2))
    state[:, 0, 0] = state[:, 1, 1] = 1.0
    chain = np.broadcast_to(np.eye(dim - 2), tau.shape + (dim - 2, dim - 2)).copy()
    active, start = np.arange(tau.size), 0.0
    for stop in stops:
        # a shared end stays the scalar it is, so its RHS divides by no array
        clock = end if np.ndim(end) == 0 else ends[active]
        drifts, ramp = drift_base[active], (model, tau[active], g_f[active], r_n[active], eta[active], clock)
        c = chain[active]
        if dim == 2:
            rhs, flow = lyapunov_batch_rhs(drifts, diffusion[active], *ramp), None
        else:
            rhs, q = system_columns_rhs(drifts, diffusion[active], *ramp)
            flow = chain_flow(drifts, diffusion[active], tau[active] / clock, c, q)
        if t_samples is not None:
            flow, sampled = _sampling(flow, c, t_samples)
        ts, ys = solve_to(rhs, start, stop, state[active], replace(settings, subflow=flow), t_samples)
        state[active], chain[active] = ys[-1], c
        active, start = active[ends[active] > stop], stop

    v = _covariance(state, chain)
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
    return ts / stops[0], _covariance(ys, np.stack([sampled.get(t, sampled[None]) for t in ts.tolist()]))


def _sampling(flow, c, t_samples):
    """``flow``, if any, that also keeps a copy of the chain block ``c`` after each step ending on a sample time.

    Returns the flow and the copies, keyed by time; key ``None`` holds
    ``c`` as it is now, the state of the samples at or before the start.
    """
    targets, sampled = set(np.asarray(t_samples, dtype=float).tolist()), {None: c.copy()}

    def subflow(t, t_new, w):
        if flow is not None:
            flow(t, t_new, w)
        if t_new in targets:
            sampled[t_new] = c.copy()

    return subflow, sampled


def _covariance(w, c):
    """V from system columns ``w`` (..., N, 2) and chain block ``c`` (..., N - 2, N - 2).

    V is exactly symmetric when the system block of ``w`` and ``c`` are.
    """
    dim = w.shape[-2]
    v = np.empty(w.shape[:-1] + (dim,))
    v[..., :2] = w
    v[..., :2, 2:] = w[..., 2:, :].swapaxes(-1, -2)
    v[..., 2:, 2:] = c
    return v


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
    ``dx^2 = V[0, 0]`` and ``dp^2 = V[1, 1]``, the system mode's
    ``q_1`` and ``p_1``, in the ``x = a + a^dag`` convention,
    ``n = (dx^2 + dp^2)/4 - 1/2``.  The energy uses the
    single-mode normal-phase Hamiltonian, and ``e_r`` is its excess over
    :func:`critquench.model.ground_state_energy`, nonnegative for every
    physical state (it equals ``(w/4)[(1-g^2) dx^2 + dp^2] - (w/2)
    sqrt(1-g^2)``, bounded below by zero through the uncertainty
    relation).  Clamps rounding-level negative variances.
    """
    e_0 = model_mod.ground_state_energy(omega, g)  # checks g in [0, 1]
    v = np.asarray(v, dtype=float)
    x2 = v[..., 0, 0]
    p2 = v[..., 1, 1]
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
    g = trajectory.protocol.coupling(trajectory.ts)
    obs = observables_from_covariance(vs, g, trajectory.model.omega)
    columns = np.column_stack(
        [trajectory.ts, g, vs[:, 0, 0], vs[:, 1, 1], vs[:, 0, 1]]
        + [obs[name] for name in TRAJECTORY_COLUMNS[5:]]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sep.join(TRAJECTORY_COLUMNS) + "\n")
        for row in columns:
            fh.write(sep.join(f"{v:.17g}" for v in row) + "\n")

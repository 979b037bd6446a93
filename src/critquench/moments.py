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
their terms.  It steps the isolated mode's propagator U by Gauss
collocation, in physical time with no step cap, and a frame carries
the rest of V in U's frame (:mod:`critquench._flows`).  A sweep is one
vectorized batch of one member per quench time (and size), and all of
them share one adaptive step sequence, which keeps thousand-point
sweeps fast; a member's isolated state is its own ``U U^T``.
:func:`propagate_moments_batch` is the Runge-Kutta reference of the
Markovian flow, which no production path calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import model as model_mod
from ._flows import ChainFrame, MarkovFrame, collocate_to, lyapunov_batch_rhs, system_rates
from ._ode import DEFAULT_SETTINGS, IntegratorSettings, _StepControl
from ._ode import solve_to  # only the reference's stepper; the benchmark patches it (ROADMAP item 1)
from .errors import DomainError, IntegrationFailure, PhysicalityError
from .model import ModelSpec
from .protocol import QuenchProtocol

if TYPE_CHECKING:
    from .auxbath import AuxBathParams

#: Radicand values and eigenvalues of ``V + iJ`` above this (negative)
#: floor count as rounding; radicands are clamped to zero.
PHYSICALITY_TOL = 1e-10

#: Lanes of a Markovian batch's longest member (:func:`_lanes`; ``tests/ledger_probe.py lanes`` scans it)
LANES = 8


@dataclass(frozen=True)
class BathSpec:
    """Markovian thermal bath: overall rate kappa and occupation n_th.

    Both bath types answer ``is_isolated`` and ``lyapunov_terms(model)``
    (see :class:`critquench.auxbath.AuxBathParams`), so no caller needs
    to know which one it holds.
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
        if not 0.0 <= temperature < math.inf:
            raise DomainError(f"temperature must be finite and nonnegative, got {temperature}")
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
    a frozen coupling (:func:`steady_state_covariance`); a propagation
    writes the same entries from the coefficient table by the one writer
    of ``_flows._ramp``, which :func:`system_rates` and
    :func:`lyapunov_batch_rhs` share, so this is an independent check of it.
    """
    h_qq, h_pp = model_mod.quadrature_form(model, g, eta=eta)
    np.negative(h_qq, out=drift[..., 1, 0])
    drift[..., 0, 1] = h_pp
    return drift


def propagate_moments_batch(
    tau_q, g_final, r_n, model: ModelSpec, kappa, n_th, eta=None, settings: IntegratorSettings = DEFAULT_SETTINGS
):
    """Reference: many Markovian quenches from the vacuum ``V = I`` by Runge-Kutta.

    One :func:`solve_to` call (8th-order Dormand-Prince) integrates V
    itself with :func:`lyapunov_batch_rhs`, in rescaled time ``s`` in
    [0, 1], under the cap ``3.5 / (max(2.5 omega, kappa) max(tau_q))``,
    and the final state passes the physicality check of
    :func:`propagate_batch`.  No production path calls it: the tests and
    the benchmark compare the engine against it.  All parameter
    arguments broadcast against each other; ``eta`` defaults to the
    model's size.  Returns ``([1], V)`` with V of shape (1, B, 2, 2).
    """
    tau, g_f, r_n, eta, kappa, n_th = broadcast_members(
        tau_q, g_final, r_n, model.eta if eta is None else eta, kappa, n_th
    )
    rate = max(2.5 * model.omega, float(np.max(kappa)))
    settings = replace(settings, max_step=min(settings.max_step, 3.5 / (rate * float(np.max(tau)))))
    rhs = lyapunov_batch_rhs(*thermal_bath(kappa, n_th), model, tau, g_f, r_n, eta, 1.0)
    v = solve_to(rhs, 0.0, 1.0, np.broadcast_to(np.eye(2), tau.shape + (2, 2)).copy(), settings)
    _require_physical(v, settings.rtol, np.ones(tau.size))
    return np.ones(1), v[None]


def propagate_batch(
    drift_base, diffusion, model: ModelSpec, tau, g_f, r_n, eta, settings=DEFAULT_SETTINGS, s_samples=None
):
    """The one Lyapunov engine: propagate a batch from the vacuum ``V = I``.

    A bath supplies its terms, ``drift_base`` and ``diffusion``, one per
    member or one for all.  A Markovian member is cut into lanes
    (:func:`_lanes`), each run from ``U = I``, ``e = 0`` at its own start
    in the ramp and then composed exactly (:meth:`MarkovFrame.compose`);
    a chain's state does not compose, so its member is one lane.  The
    lanes run on one clock: one call of :func:`collocate_to` runs to each
    distinct lane length, and the lanes of that length leave; every span
    keeps the step the last one ended with.  Each step collocates the
    isolated mode's 2x2 propagator U at the Gauss nodes of the frame's
    rule (24 Markovian, 16 with a chain), bounded by the error estimates
    and ``settings.max_step`` alone.  A frame built once per batch
    carries the rest of V in U's frame: the Markovian excess at N = 2
    (:class:`critquench._flows.MarkovFrame`), else the chain
    (:class:`critquench._flows.ChainFrame`).

    Each sample time ``s tau`` is a cut, or a chain's stop (sampling
    needs one ``tau`` and ``s`` in ``[0, 1]``).  V is rebuilt, exactly
    symmetric, at each sample and at the end, beside the isolated state
    ``U U^T`` of the same member, V at ``kappa = 0``.  A member ending
    with an eigenvalue of ``V + iJ``, in either, below
    ``-(PHYSICALITY_TOL + rtol max|V|)`` raises :class:`IntegrationFailure`
    at its end.  Returns ``(s_times, V, isolated)``, V (S, B, N, N) and
    ``isolated`` (S, B, 2, 2): ``s_times`` is ``s_samples`` as given,
    member ``b`` sampled at ``s tau_b``, or ``[1]`` without samples.
    """
    drift_base = np.broadcast_to(drift_base, tau.shape + np.shape(drift_base)[-2:])
    diffusion = np.broadcast_to(diffusion, drift_base.shape)
    sample_times = []
    if s_samples is not None:
        s_samples = np.atleast_1d(np.asarray(s_samples, dtype=float))
        if np.any(tau != tau[0]):
            raise ValueError("sampling needs members of one quench time")
        if not np.all((s_samples >= 0.0) & (s_samples <= 1.0)):
            raise ValueError(f"sample times must lie in [0, 1], got {s_samples.tolist()}")
        sample_times = (s_samples * tau[0]).tolist()

    markov = drift_base.shape[-1] == 2
    member, start, length = _lanes(tau, sample_times) if markov else (np.arange(tau.size), np.zeros(tau.size), tau)
    stops = sorted(set(length.tolist()).union([] if markov else sample_times) - {0.0})
    frame = (MarkovFrame if markov else ChainFrame)(drift_base[member], diffusion[member])
    u = np.broadcast_to(np.eye(2), member.shape + (2, 2)).copy()
    # the collocation's stage estimate is O(h^m) at m nodes
    step = _StepControl(settings, -1.0 / frame.rule.nodes.size, frame.first_step)

    def sample(u, state):
        return _covariance(u, *state), u @ u.swapaxes(-1, -2)

    # at t = 0 every lane is its member's vacuum
    sampled = {0.0: tuple(v[: tau.size] for v in sample(u, frame.state()))} if sample_times else {}
    active, t, built = np.arange(member.size), 0.0, 0
    for stop in stops:
        if active.size != built:  # the first span, or lanes have left
            built, lanes = active.size, member[active]
            system = system_rates(model, tau[lanes], g_f[lanes], r_n[lanes], eta[lanes], start[active])
            advance = frame.advance(active, settings.rtol, settings.atol)
        u[active] = collocate_to(frame.rule, system, advance, t, stop, u[active], step)
        if sample_times and not markov:
            sampled[stop] = sample(u, frame.state())
        active, t = active[length[active] > stop], stop

    if markov:
        composed = [sample(*joined) for joined in frame.compose(u, member, length)]
        # a sample time t follows the lanes of member 0, which come first, that start before it
        sampled.update((t, composed[np.searchsorted(start[member == 0], t) - 1]) for t in sample_times if t)
        finals = composed[-1]
    else:
        finals = sample(u, frame.state())
    for final in finals:
        _require_physical(final, settings.rtol, tau)
    if s_samples is None:
        return np.ones(1), *(final[None] for final in finals)
    return s_samples, *(np.stack([sampled[t][k] for t in sample_times]) for k in (0, 1))


def _lanes(tau, cuts):
    """``(member, start, length)`` of a Markovian batch's lanes, member by member in time order.

    Each member is cut at ``cuts`` (sample times), and each piece into
    ``ceil(LANES piece / max(tau))`` lanes of one length.  Lengths within
    8 ulps of ``max(tau)``, as differences of sample times give, run as
    the longest of them, a lane's overlap with the next a cut's rounding.
    """
    longest, lanes = float(np.max(tau)), []
    for b, end in enumerate(tau.tolist()):
        bounds = sorted({0.0, end, *cuts})
        for a, z in zip(bounds, bounds[1:]):
            n = math.ceil(LANES * ((z - a) / longest))
            lanes += [(b, a + k * (z - a) / n, (z - a) / n) for k in range(n)]
    member, start, length = (np.array(column) for column in zip(*lanes))
    stops = sorted(set(length.tolist()))
    stops = [lo for lo, hi in zip(stops, stops[1:]) if hi - lo > 8.0 * math.ulp(longest)] + stops[-1:]
    return member, start, np.array(stops)[np.searchsorted(stops, length)]


def _require_physical(v, rtol, ends):
    """Raise :class:`IntegrationFailure` at its end for the worst member of ``v`` below the physicality floor.

    The floor is ``PHYSICALITY_TOL + rtol max|V|``: loose tolerances
    leave a pure state up to about ``rtol |V|`` below the bound.
    """
    floor = PHYSICALITY_TOL + rtol * np.max(np.abs(v), axis=(-2, -1))
    defect = physicality_defect(v, symplectic_form(v.shape[-1] // 2))
    worst = int(np.argmin(defect + floor))
    if defect[worst] < -floor[worst]:
        message = f"unphysical state: V + iJ has eigenvalue {defect[worst]:.3g} below -{floor[worst]:.3g}"
        raise IntegrationFailure(message, t_last=float(ends[worst]))


def _covariance(u, e, x, c):
    """V from the propagator ``u`` (..., 2, 2) and the frame's ``e``, ``x`` and ``c`` (:class:`ChainFrame`).

    ``S = U U^T + U e U^T``, made exactly symmetric, so a member with
    ``e = 0`` gets exactly ``U U^T``.
    """
    dim = c.shape[-1] + 2
    v = np.empty(u.shape[:-2] + (dim, dim))
    u_t = u.swapaxes(-1, -2)
    system = u @ u_t + u @ e @ u_t
    v[..., :2, :2] = 0.5 * (system + system.swapaxes(-1, -2))
    v[..., 2:, :2] = x
    v[..., :2, 2:] = x.swapaxes(-1, -2)
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
    members = broadcast_members(protocol.tau_q, protocol.g_final, protocol.r_n, model.eta)
    ss, vs, _ = propagate_batch(*bath.lyapunov_terms(model), model, *members, settings, s_samples)
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

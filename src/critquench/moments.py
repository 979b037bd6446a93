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

Sweeps are propagated as one vectorized batch: members with different
quench times, couplings, ramp shapes, sizes and bath rates share a
single adaptive step sequence, which is what keeps thousand-point
sweeps fast.  A Markovian batch runs in rescaled time
``s = t / tau_q``; a structured one in physical time, as its damped
chain bounds the step alike for every member there (see
:func:`lyapunov_batch_rhs`).  The isolated and open legs of a sweep are
two blocks of members of one batch, the isolated block with
``kappa = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import model as model_mod
from ._ode import DEFAULT_SETTINGS, IntegratorSettings, solve_to
from .errors import DomainError, PhysicalityError
from .model import ModelSpec
from .protocol import QuenchProtocol, ramp_profile

if TYPE_CHECKING:
    from .auxbath import AuxBathParams

#: Radicand values above this (negative) floor are clamped to zero.
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


@dataclass(frozen=True)
class ObservableRecord:
    """Physical observables extracted from one Gaussian state."""

    n: float
    dx: float
    dp: float
    energy: float
    residual_energy: float


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


def set_system_block(drift: np.ndarray, model: ModelSpec, g, eta=None) -> np.ndarray:
    """Write the ramped system block of ``J H(g)`` into ``drift`` in place.

    ``drift`` is one matrix or a stack over members (then ``g`` and
    ``eta`` broadcast over the stack); returns it for chaining.
    """
    n = drift.shape[-1] // 2
    h_qq, h_pp = model_mod.quadrature_form(model, g, eta=eta)
    np.negative(h_qq, out=drift[..., n, 0])
    drift[..., 0, n] = h_pp
    return drift


def lyapunov_batch_rhs(drift_base, diffusion, model: ModelSpec, tau_q, g_final, r_n, eta=None, end=1.0):
    """``dV/du = (tau_q / end) (Gamma(s) V + V Gamma(s)^T + D)`` for a batch of covariances.

    The solver's time ``u`` is one scalar for the whole batch; each
    member reads its ramp at its own clock ``s = u / end``, which runs
    from 0 to 1 as ``u`` runs to ``end``.  ``end = 1`` (the default)
    makes ``u`` the rescaled time ``s = t / tau_q`` of every member;
    ``end = tau_q`` makes it the physical time ``t``.
    ``drift_base`` (one matrix, or one per member) holds every drift
    entry but the ramped system block, which each call rewrites in a
    buffer allocated once here; the other entries are never touched, so
    the result depends on ``(u, V)`` only.  V must be symmetric, as
    ``V Gamma^T`` is taken as ``(Gamma V)^T``; the output is exactly
    symmetric, so a flow started from a symmetric V stays exactly
    symmetric through every Runge-Kutta stage.  ``tau_q``, ``g_final``,
    ``r_n``, ``eta`` and ``end`` are per member.
    """
    drift = np.array(np.broadcast_to(drift_base, tau_q.shape + np.shape(drift_base)[-2:]))
    # the rate spread over whole matrices, as a broadcast (B, 1, 1) product
    # costs more per call than the arithmetic it does; a unit rate is skipped
    rate = tau_q / end
    rate = None if np.all(rate == 1.0) else np.array(np.broadcast_to(rate[:, None, None], drift.shape))
    ramp = ramp_profile(r_n)

    def rhs(u, v):
        set_system_block(drift, model, g_final * ramp(u / end), eta=eta)
        m = drift @ v
        out = m + m.swapaxes(-1, -2)
        out += diffusion
        if rate is not None:
            out *= rate
        return out

    return rhs


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
    rhs = lyapunov_batch_rhs(drift_base, diffusion, model, tau, g_f, r_n, eta=eta)
    v0 = np.broadcast_to(np.eye(2), drift_base.shape).copy()
    # cap the rescaled-time step so strongly damped members stay stable
    rate = max(2.5 * model.omega, float(np.max(kappa)))
    cap = 3.5 / (rate * float(np.max(tau)))
    settings = replace(settings, max_step=min(settings.max_step, cap))
    return solve_to(rhs, 0.0, 1.0, v0, settings=settings, t_samples=s_samples)


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

    def couplings(self) -> np.ndarray:
        return self.protocol.coupling(self.ts)

    def observable_arrays(self):
        """Vectorized (n, dx, dp, energy, e_r) along the trajectory."""
        return observable_arrays(self.vs, self.couplings(), self.model.omega)


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


def observable_arrays(v, g, omega):
    """(n, dx, dp, energy, e_r) of the system mode from covariances (..., 2n, 2n).

    ``dx^2 = V[q1, q1]`` and ``dp^2 = V[p1, p1]`` in the ``x = a + a^dag``
    convention, ``n = (dx^2 + dp^2)/4 - 1/2``.  The energy uses the
    single-mode normal-phase Hamiltonian, so the residual energy is
    nonnegative for every physical state (it equals
    ``(w/4)[(1-g^2) dx^2 + dp^2] - (w/2) sqrt(1-g^2)``, bounded below by
    zero through the uncertainty relation).  Clamps rounding-level
    negative variances.
    """
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
    e_r = energy - 0.5 * omega * (np.sqrt(1.0 - g * g) - 1.0)
    return n, np.sqrt(x2), np.sqrt(p2), energy, e_r


def observables_from_covariance(v, g: float, omega: float = 1.0) -> ObservableRecord:
    """Physical observables of the system mode of one covariance at coupling g."""
    if not 0.0 <= g <= model_mod.CRITICAL_COUPLING:
        raise DomainError("coupling g must lie in [0, 1]")
    n, dx, dp, energy, e_r = observable_arrays(np.asarray(v, dtype=float), g, omega)
    return ObservableRecord(
        n=float(n), dx=float(dx), dp=float(dp), energy=float(energy), residual_energy=float(e_r)
    )


def steady_state_covariance(model: ModelSpec, g: float, drift_base, diffusion) -> np.ndarray:
    """Fixed point of the Lyapunov flow at frozen coupling g.

    Solves ``Gamma(g) V + V Gamma(g)^T + D = 0`` for a bath given as
    drift base and diffusion (``bath.lyapunov_terms(model)`` of either
    bath type).  Requires a strictly damped drift: the isolated flow
    (kappa = 0) has no attracting fixed point.
    """
    from scipy.linalg import solve_continuous_lyapunov

    if not 0.0 <= g <= model_mod.CRITICAL_COUPLING:
        raise DomainError("coupling g must lie in [0, 1]")
    drift = set_system_block(np.array(drift_base, dtype=float), model, g)
    if not np.max(np.linalg.eigvals(drift).real) < 0.0:
        raise DomainError("steady state requires a strictly damped drift (kappa > 0)")
    return solve_continuous_lyapunov(drift, -np.asarray(diffusion))


TRAJECTORY_COLUMNS = ("t", "g", "v_qq", "v_pp", "v_qp", "n", "dx", "dp", "e_r")


def write_trajectory(path, trajectory: CovarianceTrajectory) -> None:
    """Dump a sampled trajectory as a delimited text table.

    The ``v_*`` columns are the system block of the covariance.  The
    delimiter follows the file extension (.tsv tab, .csv comma); all
    values carry 17 significant digits.
    """
    path = str(path)
    if path.endswith(".tsv"):
        sep = "\t"
    elif path.endswith(".csv"):
        sep = ","
    else:
        raise ValueError("trajectory path must end in .tsv or .csv")
    vs = trajectory.vs
    n_modes = vs.shape[-1] // 2
    n, dx, dp, _, e_r = trajectory.observable_arrays()
    columns = np.column_stack(
        [trajectory.ts, trajectory.couplings(), vs[:, 0, 0], vs[:, n_modes, n_modes], vs[:, 0, n_modes], n, dx, dp, e_r]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sep.join(TRAJECTORY_COLUMNS) + "\n")
        for row in columns:
            fh.write(sep.join(f"{v:.17g}" for v in row) + "\n")

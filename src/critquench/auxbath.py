"""Structured (non-Markovian) environment via damped auxiliary oscillators.

The system mode couples linearly to a short chain of auxiliary
oscillators, each locally damped at zero temperature; with suitable
oscillator parameters the chain reproduces the influence of a
continuous bath with a prescribed spectral density.  The built-in
default table realizes an Ohmic density
``J(w) = 2 kappa^2 pi w exp(-w / w_c)`` with four oscillators.

Everything is quadratic, so the full state is the symmetrized
covariance matrix ``V_jk = <x_j x_k + x_k x_j>`` over the quadratures
``x = (q_1..q_{N+1}, p_1..p_{N+1})`` (system mode first,
``a = (q_1 + i p_1)/sqrt(2)``), which obeys the time-dependent
Lyapunov equation

    dV/dt = Gamma(t) V + V Gamma(t)^T + D,
    Gamma(t) = J H(g(t)) - Im(Upsilon) J,   D = 2 Re(Upsilon),

with J the symplectic form, H the quadratic-form matrix of the chain
Hamiltonian and Upsilon built from the damping vectors.  Only the
single matrix element H[q1, q1] depends on the ramped coupling, so the
drift is a cached base plus one time-dependent entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as model_mod
from ._ode import DEFAULT_SETTINGS, IntegratorSettings, solve_to
from .errors import DomainError, PhysicalityError
from .moments import MomentState, ObservableRecord, observables_from_moments
from .protocol import QuenchProtocol, ramp_shape


@dataclass(frozen=True)
class AuxOscillator:
    """One auxiliary oscillator: frequency, couplings, local damping.

    All values are in units of the cutoff frequency omega_c; ``c`` is
    the coupling to the system mode, ``d`` the hopping to the next
    oscillator in the chain (zero for the last one).
    """

    omega: float
    c: complex
    d: complex
    gamma: float

    def __post_init__(self):
        if self.gamma < 0.0:
            raise DomainError(f"oscillator damping must be nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class AuxBathParams:
    """Dimensionless system-bath coupling plus the oscillator table."""

    kappa: float
    omega_c: float
    oscillators: tuple[AuxOscillator, ...]

    def __post_init__(self):
        if self.kappa < 0.0:
            raise DomainError(f"kappa must be nonnegative, got {self.kappa}")
        if self.omega_c <= 0.0:
            raise DomainError(f"omega_c must be positive, got {self.omega_c}")
        if len(self.oscillators) < 1:
            raise DomainError("need at least one auxiliary oscillator")
        if self.oscillators[-1].d != 0:
            raise DomainError("last oscillator must have zero chain hopping")

    @property
    def n_oscillators(self) -> int:
        return len(self.oscillators)


#: Four-oscillator realization of the Ohmic T = 0 bath.
DEFAULT_OHMIC = AuxBathParams(
    kappa=1e-5,
    omega_c=20.0,
    oscillators=(
        AuxOscillator(omega=2.70796, c=-0.0333215 - 0.0121362j, d=3.38195, gamma=11.9298),
        AuxOscillator(omega=2.13014, c=0.319 + 0.0811955j, d=1.43514, gamma=0.573494),
        AuxOscillator(omega=1.15884, c=0.760716 + 0.0175762j, d=0.491546, gamma=0.0317143),
        AuxOscillator(omega=0.310906, c=0.579218 + 0.0j, d=0.0, gamma=0.000795693),
    ),
)


def ohmic_spectral_density(omega, kappa: float, omega_c: float):
    """J(w) = 2 kappa^2 pi w exp(-w / w_c), the bath the default table fits."""
    omega = np.asarray(omega, dtype=float)
    return 2.0 * np.pi * kappa**2 * omega * np.exp(-omega / omega_c)


def symplectic_form(n_modes: int) -> np.ndarray:
    """J = [[0, I], [-I, 0]] in the (q..., p...) ordering."""
    j = np.zeros((2 * n_modes, 2 * n_modes))
    j[:n_modes, n_modes:] = np.eye(n_modes)
    j[n_modes:, :n_modes] = -np.eye(n_modes)
    return j


@dataclass(frozen=True)
class SymplecticSystem:
    """Assembled quadratic network: H(g), J, damping matrices, drift."""

    n_modes: int
    omega: float
    g: float
    h_base: np.ndarray      # H at g = 0; only H[q1,q1] is g-dependent
    j: np.ndarray
    upsilon: np.ndarray     # sum_k lambda_k lambda_k^dag, complex Hermitian
    d_matrix: np.ndarray    # 2 Re(Upsilon)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    @property
    def h(self) -> np.ndarray:
        """Quadratic-form matrix at the coupling the system was built with."""
        return self.h_matrix(self.g)

    def h_matrix(self, g: float) -> np.ndarray:
        h = self.h_base.copy()
        h[0, 0] -= self.omega * g * g
        return h

    def drift_base(self) -> np.ndarray:
        return self.j @ self.h_base - np.imag(self.upsilon) @ self.j

    def drift(self, g: float) -> np.ndarray:
        gamma = self.drift_base()
        gamma[self.n_modes, 0] += self.omega * g * g
        return gamma


def build_system(model_omega: float, g: float, params: AuxBathParams) -> SymplecticSystem:
    """Assemble the system + chain quadratic network at coupling g.

    The returned object caches the g = 0 Hamiltonian; ``h_matrix(g)``
    and ``drift(g)`` apply the single ramped entry.  Frequencies in
    ``params`` are scaled by ``omega_c`` (itself in units of
    ``model_omega``).
    """
    if not 0.0 <= g <= model_mod.CRITICAL_COUPLING:
        raise DomainError("coupling g must lie in [0, 1]")
    n = params.n_oscillators + 1
    wc = params.omega_c * model_omega
    h = np.zeros((2 * n, 2 * n))
    h[0, 0] = model_omega
    h[n, n] = model_omega

    for idx, osc in enumerate(params.oscillators):
        qi, pi = 1 + idx, n + 1 + idx
        w_k = osc.omega * wc
        h[qi, qi] = w_k
        h[pi, pi] = w_k
        # kappa (a + a^dag)(c b + c* b^dag) = 2 kappa (Re c q1 qk - Im c q1 pk)
        c_k = complex(osc.c) * wc
        h[0, qi] = h[qi, 0] = 2.0 * params.kappa * c_k.real
        h[0, pi] = h[pi, 0] = -2.0 * params.kappa * c_k.imag

    for idx in range(params.n_oscillators - 1):
        d_k = complex(params.oscillators[idx].d) * wc
        qi, pi = 1 + idx, n + 1 + idx
        qj, pj = qi + 1, pi + 1
        # d b_k b_{k+1}^dag + h.c. in quadratures
        h[qi, qj] = h[qj, qi] = d_k.real
        h[pi, pj] = h[pj, pi] = d_k.real
        h[pi, qj] = h[qj, pi] = -d_k.imag
        h[qi, pj] = h[pj, qi] = d_k.imag

    upsilon = np.zeros((2 * n, 2 * n), dtype=complex)
    for idx, osc in enumerate(params.oscillators):
        qi, pi = 1 + idx, n + 1 + idx
        # L = sqrt(gamma) b = sqrt(gamma/2)(q + i p) = lambda . J x
        lam = np.zeros(2 * n, dtype=complex)
        lam[qi] = 1j * np.sqrt(osc.gamma * wc / 2.0)
        lam[pi] = -np.sqrt(osc.gamma * wc / 2.0)
        upsilon += np.outer(lam, lam.conj())

    return SymplecticSystem(
        n_modes=n,
        omega=model_omega,
        g=float(g),
        h_base=h,
        j=symplectic_form(n),
        upsilon=upsilon,
        d_matrix=2.0 * np.real(upsilon),
    )


def vacuum_covariance(n_modes: int) -> np.ndarray:
    """V(0) = identity on the full 2 n_modes phase space."""
    return np.eye(2 * n_modes)


def lyapunov_rhs(v: np.ndarray, system: SymplecticSystem, g: float) -> np.ndarray:
    """dV/dt at coupling g; exactly symmetric for symmetric input."""
    v_sym = 0.5 * (v + v.T)
    m = system.drift(g) @ v_sym
    return m + m.T + system.d_matrix


def physicality_defect(v: np.ndarray, j: np.ndarray) -> float:
    """Most negative eigenvalue of V + iJ (>= 0 for physical states)."""
    eigs = np.linalg.eigvalsh(v.astype(complex) + 1j * j)
    return float(np.min(eigs))


def assert_physical(v: np.ndarray, j: np.ndarray, tol: float = 1e-8) -> None:
    defect = physicality_defect(v, j)
    if defect < -tol:
        raise PhysicalityError(f"V + iJ has eigenvalue {defect} below -{tol}")


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Sampled covariance history of one structured-bath quench."""

    ts: np.ndarray
    vs: np.ndarray
    protocol: QuenchProtocol
    system: SymplecticSystem

    @property
    def final(self) -> np.ndarray:
        return self.vs[-1]


def _covariance_batch_rhs(system: SymplecticSystem, tau, g_f, r_n):
    drift0 = system.drift_base()
    n = system.n_modes
    omega = system.omega
    tau = tau[:, None, None]

    def rhs(s, v):
        g = g_f * ramp_shape(s, r_n)
        gamma = np.broadcast_to(drift0, v.shape).copy()
        gamma[:, n, 0] += omega * g * g
        v_sym = 0.5 * (v + np.swapaxes(v, -1, -2))
        m = gamma @ v_sym
        return tau * (m + np.swapaxes(m, -1, -2) + system.d_matrix)

    return rhs


def _drift_spectral_radius(system: SymplecticSystem) -> float:
    radius = 0.0
    for g in (0.0, 1.0):
        radius = max(radius, float(np.max(np.abs(np.linalg.eigvals(system.drift(g))))))
    return radius


def propagate_covariance_batch(
    tau_q,
    g_final,
    r_n,
    params: AuxBathParams,
    model_omega: float = 1.0,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    s_samples=None,
):
    """Vectorized Lyapunov propagation from vacuum for many quench times.

    The explicit stepper is stability-limited by the strongly damped
    chain members, so the step is capped at a fraction of the inverse
    drift spectral radius; accuracy then rides far below tolerance.
    """
    system = build_system(model_omega, 0.0, params)
    tau, g_f, r_n = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (tau_q, g_final, r_n))
    )
    rhs = _covariance_batch_rhs(system, tau, g_f, r_n)
    v0 = np.broadcast_to(vacuum_covariance(system.n_modes), (tau.size,) + (system.dim,) * 2).copy()
    cap = 3.5 / (_drift_spectral_radius(system) * float(np.max(tau)))
    eff = replace(settings, max_step=min(settings.max_step, cap))
    ss, vs = solve_to(rhs, 0.0, 1.0, v0, settings=eff, t_samples=s_samples)
    return ss, vs, system


def integrate_lyapunov(
    protocol: QuenchProtocol,
    model_omega: float = 1.0,
    params: AuxBathParams = DEFAULT_OHMIC,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    samples: int = 51,
) -> CovarianceTrajectory:
    """Propagate one structured-bath quench from the global vacuum."""
    s_samples = np.linspace(0.0, 1.0, samples) if samples and samples > 1 else None
    ss, vs, system = propagate_covariance_batch(
        protocol.tau_q,
        protocol.g_final,
        protocol.r_n,
        params,
        model_omega=model_omega,
        settings=settings,
        s_samples=s_samples,
    )
    return CovarianceTrajectory(
        ts=ss * protocol.tau_q, vs=vs[:, 0], protocol=protocol, system=system
    )


def system_block_moments(v: np.ndarray, n_modes: int):
    """Map the system block of V to (sigma, sigma10) moment variables."""
    vqq = v[..., 0, 0]
    vpp = v[..., n_modes, n_modes]
    vqp = v[..., 0, n_modes]
    sigma = 0.25 * (vqq + vpp)
    sigma10 = 0.25 * (vpp - vqq) + 0.5j * vqp
    return sigma, sigma10


def observables_from_covariance(
    v: np.ndarray, g: float, omega: float = 1.0
) -> ObservableRecord:
    """Physical observables of the system mode from the full covariance.

    ``Delta x^2 = V[q1, q1]`` and ``Delta p^2 = V[p1, p1]`` in the
    ``x = a + a^dag`` convention; the energy uses the same single-mode
    Hamiltonian as the moment module.
    """
    sigma, sigma10 = system_block_moments(v, v.shape[-1] // 2)
    return observables_from_moments(MomentState(float(sigma), complex(sigma10)), g, omega)


def steady_state_covariance(
    params: AuxBathParams, model_omega: float, g: float
) -> np.ndarray:
    """Stationary covariance at frozen coupling via the algebraic equation.

    Solves ``Gamma V + V Gamma^T + D = 0`` directly; diagnostic use.
    """
    from scipy.linalg import solve_continuous_lyapunov

    system = build_system(model_omega, g, params)
    return solve_continuous_lyapunov(system.drift(g), -system.d_matrix)


PARAMS_FILE_DOC = """\
# Structured-bath parameter file.
# Scalars: kappa (dimensionless), omega_c (units of the system frequency).
# One [oscillator] block per chain member, values in units of omega_c:
#   omega, c_re, c_im, d_re, d_im, gamma.  The last block must have d = 0.
"""


def load_params(path) -> AuxBathParams:
    """Read an auxiliary-bath parameter file (see PARAMS_FILE_DOC)."""
    scalars: dict[str, float] = {}
    blocks: list[dict[str, float]] = []
    current: dict[str, float] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "[oscillator]":
                current = {}
                blocks.append(current)
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            try:
                parsed = float(value.strip())
            except ValueError:
                raise DomainError(f"{path}:{lineno}: non-numeric value {value.strip()!r}") from None
            if current is None:
                scalars[key] = parsed
            else:
                current[key] = parsed
    for required in ("kappa", "omega_c"):
        if required not in scalars:
            raise DomainError(f"{path}: missing scalar key {required!r}")
    oscillators = []
    for i, block in enumerate(blocks):
        missing = {"omega", "c_re", "c_im", "d_re", "d_im", "gamma"} - set(block)
        if missing:
            raise DomainError(f"{path}: oscillator {i + 1} missing keys {sorted(missing)}")
        oscillators.append(
            AuxOscillator(
                omega=block["omega"],
                c=complex(block["c_re"], block["c_im"]),
                d=complex(block["d_re"], block["d_im"]),
                gamma=block["gamma"],
            )
        )
    return AuxBathParams(
        kappa=scalars["kappa"], omega_c=scalars["omega_c"], oscillators=tuple(oscillators)
    )


def dump_params(path, params: AuxBathParams) -> None:
    """Write a parameter file that :func:`load_params` reads back exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PARAMS_FILE_DOC)
        fh.write(f"kappa = {params.kappa:.17g}\n")
        fh.write(f"omega_c = {params.omega_c:.17g}\n")
        for osc in params.oscillators:
            fh.write("\n[oscillator]\n")
            fh.write(f"omega = {osc.omega:.17g}\n")
            fh.write(f"c_re = {complex(osc.c).real:.17g}\n")
            fh.write(f"c_im = {complex(osc.c).imag:.17g}\n")
            fh.write(f"d_re = {complex(osc.d).real:.17g}\n")
            fh.write(f"d_im = {complex(osc.d).imag:.17g}\n")
            fh.write(f"gamma = {osc.gamma:.17g}\n")

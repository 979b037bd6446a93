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
Hamiltonian and Upsilon built from the damping vectors.  The system
block of H is the model's quadrature form, so the drift is a cached
base plus the ramped system block, and the flow runs on the Lyapunov
engine of :mod:`critquench.moments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as model_mod
from ._ode import DEFAULT_SETTINGS, IntegratorSettings, solve_to
from .errors import DomainError, PhysicalityError
from .model import ModelSpec
from .moments import broadcast_members, lyapunov_batch_rhs, set_system_block


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
        if not self.gamma >= 0.0:
            raise DomainError(f"oscillator damping must be nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class AuxBathParams:
    """Dimensionless system-bath coupling plus the oscillator table."""

    kappa: float
    omega_c: float
    oscillators: tuple[AuxOscillator, ...]

    def __post_init__(self):
        if not self.kappa >= 0.0:
            raise DomainError(f"kappa must be nonnegative, got {self.kappa}")
        if not self.omega_c > 0.0:
            raise DomainError(f"omega_c must be positive, got {self.omega_c}")
        if len(self.oscillators) < 1:
            raise DomainError("need at least one auxiliary oscillator")
        if self.oscillators[-1].d != 0:
            raise DomainError("last oscillator must have zero chain hopping")

    @property
    def n_oscillators(self) -> int:
        return len(self.oscillators)

    @property
    def is_isolated(self) -> bool:
        return self.kappa == 0.0

    def lyapunov_terms(self, model: ModelSpec):
        """Drift base and diffusion of the system + chain network."""
        system = build_system(model, 0.0, self)
        return system.drift_base(), system.d_matrix

    def propagate(
        self, tau_q, g_final, r_n, model: ModelSpec, settings=DEFAULT_SETTINGS, s_samples=None, kappa=None, eta=None
    ):
        """``(s_times, V)`` of a batch of quenches, V of shape (S, B, 2n, 2n)."""
        return propagate_covariance_batch(
            tau_q, g_final, r_n, self, model=model, settings=settings, s_samples=s_samples, kappa=kappa, eta=eta
        )[:2]


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
    model: ModelSpec
    g: float
    h_base: np.ndarray      # H at g = 0; only the system block is g-dependent
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
        h[0, 0], h[self.n_modes, self.n_modes] = model_mod.quadrature_form(self.model, g)
        return h

    def drift_base(self) -> np.ndarray:
        return self.j @ self.h_base - np.imag(self.upsilon) @ self.j

    def drift(self, g: float) -> np.ndarray:
        return set_system_block(self.drift_base(), self.model, g)


def build_system(model: ModelSpec, g: float, params: AuxBathParams) -> SymplecticSystem:
    """Assemble the system + chain quadratic network at coupling g.

    The returned object caches the g = 0 Hamiltonian; ``h_matrix(g)``
    and ``drift(g)`` apply the ramped system block of the model's
    quadrature form.  Frequencies in ``params`` are scaled by
    ``omega_c`` (itself in units of ``model.omega``).
    """
    if not 0.0 <= g <= model_mod.CRITICAL_COUPLING:
        raise DomainError("coupling g must lie in [0, 1]")
    n = params.n_oscillators + 1
    wc = params.omega_c * model.omega
    h = np.zeros((2 * n, 2 * n))
    h[0, 0], h[n, n] = model_mod.quadrature_form(model, 0.0)

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
        model=model,
        g=float(g),
        h_base=h,
        j=symplectic_form(n),
        upsilon=upsilon,
        d_matrix=2.0 * np.real(upsilon),
    )


def physicality_defect(v: np.ndarray, j: np.ndarray) -> float:
    """Most negative eigenvalue of V + iJ (>= 0 for physical states)."""
    eigs = np.linalg.eigvalsh(v.astype(complex) + 1j * j)
    return float(np.min(eigs))


def assert_physical(v: np.ndarray, j: np.ndarray, tol: float = 1e-8) -> None:
    defect = physicality_defect(v, j)
    if defect < -tol:
        raise PhysicalityError(f"V + iJ has eigenvalue {defect} below -{tol}")


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
    model: ModelSpec = model_mod.THERMODYNAMIC,
    settings: IntegratorSettings = DEFAULT_SETTINGS,
    s_samples=None,
    kappa=None,
    eta=None,
):
    """Vectorized Lyapunov propagation from the product vacuum ``V = I``.

    ``kappa`` is per member (default: the table's), so one batch may
    hold a sweep's isolated members (the same network at ``kappa = 0``)
    beside its open ones; ``eta`` defaults to the model's size.  The
    batch runs in physical time on one step sequence: from 0 to each
    distinct quench time in turn, one :func:`solve_to` call each, with
    the members whose quench has ended leaving the batch there.  The explicit stepper is stability-limited
    by the strongly damped chain, in physical time and alike for every
    member: the step is capped at ``3.5`` over the drift's spectral
    radius, and the controller holds it near the stability edge of the
    fastest chain mode, so most steps are shorter than the cap.

    Returns ``(s_times, V, system)`` with V of shape (S, B, 2n, 2n) and
    member ``b`` sampled at ``t = s tau_b``; sampling (``s_samples``)
    needs members of one quench time.  ``system`` is the table's network.
    """
    tau, g_f, r_n, kappa, eta = broadcast_members(
        tau_q, g_final, r_n, params.kappa if kappa is None else kappa, model.eta if eta is None else eta
    )
    ends = np.unique(tau)
    if s_samples is not None and ends.size > 1:
        raise ValueError("sampling needs members of one quench time")
    systems = {k: build_system(model, 0.0, replace(params, kappa=k)) for k in {params.kappa, *kappa.tolist()}}
    drift_base = np.stack([systems[k].drift_base() for k in kappa.tolist()])
    system = systems[params.kappa]
    # read at call time: reference runs tighten the cap by rebinding the name
    cap = 3.5 / max(_drift_spectral_radius(s) for s in systems.values())
    eff = replace(settings, max_step=min(settings.max_step, cap))
    t_samples = None if s_samples is None else np.asarray(s_samples, dtype=float) * ends[0]

    v = np.broadcast_to(np.eye(system.dim), (tau.size,) + (system.dim,) * 2).copy()
    active, start = np.arange(tau.size), 0.0
    for end in ends.tolist():
        members = tau[active]
        rhs = lyapunov_batch_rhs(
            drift_base[active], system.d_matrix, model, members, g_f[active], r_n[active], eta[active], end=members
        )
        ts, vs = solve_to(rhs, start, end, v[active], settings=eff, t_samples=t_samples)
        v[active] = vs[-1]
        active, start = active[members > end], end
    if t_samples is None:
        return np.ones(1), v[None], system
    return ts / ends[0], vs, system


PARAMS_FILE_DOC = """\
# Structured-bath parameter file.
# Scalars: kappa (dimensionless), omega_c (units of the system frequency).
# One [oscillator] block per chain member, values in units of omega_c:
#   omega, c_re, c_im, d_re, d_im, gamma.  The last block must have d = 0.
"""


_SCALAR_KEYS = ("kappa", "omega_c")
_OSCILLATOR_KEYS = ("omega", "c_re", "c_im", "d_re", "d_im", "gamma")


def load_params(path) -> AuxBathParams:
    """Read an auxiliary-bath parameter file (see PARAMS_FILE_DOC)."""
    scalars: dict[str, float] = {}
    blocks: list[dict[str, float]] = []
    current: dict[str, float] | None = None
    line_of: dict[str, int] = {}  # line of each key in the current block
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "[oscillator]":
                current, line_of = {}, {}
                blocks.append(current)
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            block, known = (scalars, _SCALAR_KEYS) if current is None else (current, _OSCILLATOR_KEYS)
            if key not in known:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}; expected one of {list(known)}")
            if key in line_of:
                lines = f"lines {line_of[key]} and {lineno}"
                raise DomainError(f"{path}:{lineno}: key {key!r} set more than once ({lines})")
            line_of[key] = lineno
            try:
                parsed = float(value.strip())
            except ValueError:
                raise DomainError(f"{path}:{lineno}: non-numeric value {value.strip()!r}") from None
            if not math.isfinite(parsed):
                raise DomainError(f"{path}:{lineno}: non-finite value {value.strip()!r}")
            block[key] = parsed
    for required in _SCALAR_KEYS:
        if required not in scalars:
            raise DomainError(f"{path}: missing scalar key {required!r}")
    oscillators = []
    for i, block in enumerate(blocks):
        missing = set(_OSCILLATOR_KEYS) - set(block)
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

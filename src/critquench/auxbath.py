"""Structured (non-Markovian) environment via damped auxiliary oscillators.

The system mode couples linearly to a short chain of auxiliary
oscillators, each locally damped at zero temperature; with suitable
oscillator parameters the chain reproduces the influence of a
continuous bath with a prescribed spectral density.  The built-in
default table realizes an Ohmic density
``J(w) = 2 kappa^2 pi w exp(-w / w_c)`` with four oscillators.

Everything is quadratic, so the full state is the symmetrized
covariance matrix ``V_jk = <x_j x_k + x_k x_j>`` over the quadratures
``x = (q_1, p_1, q_2, p_2, ..., q_{N+1}, p_{N+1})``, mode by mode
(system mode first, ``a = (q_1 + i p_1)/sqrt(2)``, then oscillator
``k = 0, 1, ...`` at indices ``2k + 2`` and ``2k + 3``), which obeys
the Lyapunov equation
``dV/dt = Gamma(t) V + V Gamma(t)^T + D``.  The bath is its drift base
and diffusion (:func:`build_system`): ``J H`` of the network at
``g = 0``, with J the symplectic form and H the quadratic-form matrix,
plus each oscillator's local damping ``sqrt(gamma) b_k``, which adds
``-gamma/2`` to the drift's ``q_k`` and ``p_k`` diagonal and ``gamma``
to the diffusion's (rates in units of ``omega_c``).  Only the system
block moves with the ramped coupling.  The flow runs on the one
Lyapunov engine, :func:`critquench.moments.propagate_batch`, in
physical time and in the order it is built (the chain is the
pseudomode construction of Tamascelli et al., PRL 120, 030402
(2018)).  Each step collocates only the isolated mode's 2x2
propagator U, at 12 Gauss nodes.  In U's frame each chain mode obeys a
linear equation with a constant, damped rate and a forcing that does
not depend on the mode, so the engine integrates it exactly against
the polynomial through the forcing at those nodes, and advances the
chain's own block exactly once per step (exponential integrators:
Hochbruck & Ostermann, Acta Numerica 19, 209 (2010);
:class:`critquench._flows.ChainFrame`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as model_mod
from ._ode import DEFAULT_SETTINGS, IntegratorSettings
from ._ode import solve_to  # noqa: F401  unused here; the benchmark patches it (ROADMAP item 1)
from .errors import DomainError
from .model import ModelSpec
from .moments import broadcast_members, propagate_batch, symplectic_form


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
        """Drift base and diffusion of the system + chain network (:func:`build_system`)."""
        return build_system(model, self)


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


def build_system(model: ModelSpec, params: AuxBathParams):
    """Drift base and diffusion of the system + chain network.

    The drift base is ``J H`` at ``g = 0`` plus the chain's damping;
    :func:`critquench.moments.set_system_block` writes the ramped system
    block.  The quadratures are in the mode-by-mode order, system mode
    at (0, 1) and oscillator ``k = 0, 1, ...`` at (2k + 2, 2k + 3).
    Frequencies in ``params`` are scaled by ``omega_c`` (itself in
    units of ``model.omega``).
    """
    n = params.n_oscillators + 1
    wc = params.omega_c * model.omega
    h = np.zeros((2 * n, 2 * n))
    h[0, 0], h[1, 1] = model_mod.quadrature_form(model, 0.0)
    damping = np.zeros(2 * n)
    for idx, osc in enumerate(params.oscillators):
        q, p = 2 * idx + 2, 2 * idx + 3
        h[q, q] = h[p, p] = osc.omega * wc
        # kappa (a + a^dag)(c b + c* b^dag) = 2 kappa (Re c q1 qk - Im c q1 pk)
        c_k = complex(osc.c) * wc
        h[0, q] = h[q, 0] = 2.0 * params.kappa * c_k.real
        h[0, p] = h[p, 0] = -2.0 * params.kappa * c_k.imag
        if osc.d:  # d b_k b_{k+1}^dag + h.c. in quadratures; the last d is 0
            d_k = complex(osc.d) * wc
            h[q, q + 2] = h[q + 2, q] = h[p, p + 2] = h[p + 2, p] = d_k.real
            h[p, q + 2] = h[q + 2, p] = -d_k.imag
            h[q, p + 2] = h[p + 2, q] = d_k.imag
        # L = sqrt(gamma) b = s (q + i p): rate s * s rather than the closed
        # form gamma wc / 2, which differs in the last bit for two of the
        # default oscillators and moves ohmic_critical's delta by 1.4e-7
        s = math.sqrt(osc.gamma * wc / 2.0)
        damping[q] = damping[p] = s * s
    return symplectic_form(n) @ h - np.diag(damping), np.diag(2.0 * damping)


# The structured propagation does not read this: the chain frame has no
# stiffness cap.  perfbench/make_reference.py and the long-double
# reference of tests/test_auxbath.py (full_flow_covariance) still scale
# their caps by it, and tests/test_benchmark_hooks.py checks the name.
def _drift_spectral_radius(drifts) -> float:
    """Largest eigenvalue modulus over a stack of drifts."""
    return float(np.max(np.abs(np.linalg.eigvals(drifts))))


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
    """A batch of the network with ``kappa`` per member, on :func:`critquench.moments.propagate_batch`.

    Builds one drift base per member from the table at its ``kappa``
    (default: the table's) and propagates them from the product vacuum
    ``V = I``; ``eta`` defaults to the model's size.  No production path
    calls it: the tests build mixed-``kappa`` batches with it, and the
    benchmark's tracer books legs through it (ROADMAP item 1).  Returns
    ``(s_times, V)``, V of shape (S, B, 2n, 2n).
    """
    tau, g_f, r_n, kappa, eta = broadcast_members(
        tau_q, g_final, r_n, params.kappa if kappa is None else kappa, model.eta if eta is None else eta
    )
    terms = {k: build_system(model, replace(params, kappa=k)) for k in {params.kappa, *kappa.tolist()}}
    drift_base = np.stack([terms[k][0] for k in kappa.tolist()])
    return propagate_batch(drift_base, terms[params.kappa][1], model, tau, g_f, r_n, eta, settings, s_samples)[:2]


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

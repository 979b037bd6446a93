"""Flat-text experiment configuration: parsing, validation, hashing.

A config file is ``key = value`` lines with ``#`` comments; keys are
dotted (``sweep.tau_min = 1e3``).  Environment variables prefixed with
``CRITQUENCH_`` override file keys (``CRITQUENCH_SWEEP_TAU_MIN=500``
sets ``sweep.tau_min``; the first underscore-separated token is the
section).  Every report line produced from a config carries the
12-hex-digit hash of its canonical form, so numbers stay traceable to
the exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

from . import auxbath
from .errors import ConfigError
from .model import CRITICAL_COUPLING, OBSERVABLES, THERMODYNAMIC, ModelKind, ModelSpec
from .moments import ISOLATED, BathSpec

ENV_PREFIX = "CRITQUENCH_"

_SECTIONS = ("model", "bath", "protocol", "sweep", "fit", "output", "integrator", "size")

_KNOWN_KEYS = {
    "model.kind",
    "model.eta",
    "model.omega",
    "model.qrm_quartic_coeff",
    "bath.type",
    "bath.kappa",
    "bath.temperature",
    "bath.n_th",
    "bath.params_file",
    "bath.omega_c",
    "protocol.g_final",
    "protocol.r_n",
    "sweep.tau_min",
    "sweep.tau_max",
    "sweep.points_per_decade",
    "fit.window_min",
    "fit.window_max",
    "fit.tolerance",
    "observables",
    "output.path",
    "integrator.rtol",
    "integrator.atol",
    "size.eta_list",
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, f"unknown configuration key ({source}:{lineno})")
        raw[key] = value.strip()
    return raw


def env_overrides(environ=None) -> dict[str, str]:
    """Collect CRITQUENCH_* environment variables as config overrides."""
    environ = os.environ if environ is None else environ
    out: dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        tail = name[len(ENV_PREFIX):].lower()
        head, _, rest = tail.partition("_")
        key = f"{head}.{rest}" if head in _SECTIONS and rest else tail
        if key not in _KNOWN_KEYS:
            raise ConfigError(name, f"environment override does not map to a known key ({key})")
        out[key] = value
    return out


def _to_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(key, f"expected a finite number, got {value!r}")
    return number


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {value!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with a canonical hash.

    ``model`` and ``bath`` are resolved once, when the config is built:
    the bath is a :class:`BathSpec` (Markovian) or the oscillator table
    of a structured bath, with its ``kappa``/``omega_c`` overrides.
    """

    model: ModelSpec = THERMODYNAMIC
    bath: BathSpec | auxbath.AuxBathParams = ISOLATED
    g_final: float = 1.0
    r_n: float = 1.0
    tau_min: float | None = None
    tau_max: float | None = None
    points_per_decade: int = 20
    window_min: float | None = None
    window_max: float | None = None
    fit_tolerance: float = 0.05
    observables: tuple[str, ...] = OBSERVABLES
    output_path: str = "out"
    rtol: float = 1e-10
    atol: float = 1e-12
    eta_list: tuple[float, ...] = ()
    raw: tuple[tuple[str, str], ...] = field(default_factory=tuple, compare=False)

    @property
    def config_hash(self) -> str:
        canonical = "\n".join(f"{k} = {v}" for k, v in sorted(self.raw))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    @property
    def bath_type(self) -> str:
        return "structured" if isinstance(self.bath, auxbath.AuxBathParams) else "markovian"

    @property
    def fit_window(self) -> tuple[float, float]:
        lo = self.tau_min if self.window_min is None else self.window_min
        hi = self.tau_max if self.window_max is None else self.window_max
        return (lo, hi)

    @property
    def is_isolated(self) -> bool:
        return self.bath.is_isolated

    @property
    def is_critical(self) -> bool:
        """The ramp ends at the critical point."""
        return self.g_final == CRITICAL_COUPLING

    def require_sweep(self) -> None:
        if self.tau_min is None or self.tau_max is None:
            raise ConfigError("sweep.tau_min", "sweep bounds are required for this command")


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Validate a raw key mapping into an :class:`ExperimentConfig`."""
    kind_text = raw.get("model.kind", "thermodynamic").lower()
    try:
        kind = ModelKind(kind_text)
    except ValueError:
        raise ConfigError(
            "model.kind", f"must be one of thermodynamic/qrm/lmg, got {kind_text!r}"
        ) from None

    eta_text = raw.get("model.eta", "inf").lower()
    eta = math.inf if eta_text in ("inf", "infinity") else _to_float("model.eta", eta_text)
    if not eta > 0.0:
        raise ConfigError("model.eta", f"must be positive, got {eta}")
    if kind is ModelKind.THERMODYNAMIC and math.isfinite(eta):
        raise ConfigError("model.eta", "finite eta requires model.kind qrm or lmg")

    omega = _to_float("model.omega", raw.get("model.omega", "1.0"))
    if not omega > 0.0:
        raise ConfigError("model.omega", f"must be positive, got {omega}")
    qrm_coeff = _to_float("model.qrm_quartic_coeff", raw.get("model.qrm_quartic_coeff", "12.0"))
    if not qrm_coeff >= 0.0:
        # a negative quartic term turns h_qq(1) = 2 c / eta negative: an inverted potential
        raise ConfigError("model.qrm_quartic_coeff", f"must be nonnegative, got {qrm_coeff}")

    bath_type = raw.get("bath.type", "markovian").lower()
    if bath_type not in ("markovian", "structured"):
        raise ConfigError("bath.type", f"must be markovian or structured, got {bath_type!r}")
    kappa = _to_float("bath.kappa", raw.get("bath.kappa", "0.0"))
    if kappa < 0.0:
        raise ConfigError("bath.kappa", f"must be nonnegative, got {kappa}")
    temperature = n_th = None
    if "bath.temperature" in raw and "bath.n_th" in raw:
        raise ConfigError("bath.temperature", "give either bath.temperature or bath.n_th, not both")
    if "bath.temperature" in raw:
        temperature = _to_float("bath.temperature", raw["bath.temperature"])
        if temperature < 0.0:
            raise ConfigError("bath.temperature", f"must be nonnegative, got {temperature}")
    if "bath.n_th" in raw:
        n_th = _to_float("bath.n_th", raw["bath.n_th"])
        if n_th < 0.0:
            raise ConfigError("bath.n_th", f"must be nonnegative, got {n_th}")
    params_file = raw.get("bath.params_file")
    omega_c = _to_float("bath.omega_c", raw["bath.omega_c"]) if "bath.omega_c" in raw else None
    if omega_c is not None and not omega_c > 0.0:
        raise ConfigError("bath.omega_c", f"must be positive, got {omega_c}")
    if bath_type == "structured" and (temperature is not None or n_th is not None):
        raise ConfigError(
            "bath.temperature",
            "structured baths carry their temperature in the oscillator table",
        )
    if bath_type == "markovian" and (params_file is not None or omega_c is not None):
        raise ConfigError("bath.params_file", "oscillator parameters apply to structured baths only")
    if bath_type == "structured" and "bath.kappa" in raw and kappa == 0.0:
        raise ConfigError(
            "bath.kappa",
            "a structured bath cannot be isolated; omit the key to use the table's kappa",
        )

    g_final = _to_float("protocol.g_final", raw.get("protocol.g_final", "1.0"))
    if not 0.0 <= g_final <= 1.0:
        raise ConfigError("protocol.g_final", f"must lie in [0, 1], got {g_final}")
    r_n = _to_float("protocol.r_n", raw.get("protocol.r_n", "1.0"))
    if not r_n > 0.0:
        raise ConfigError("protocol.r_n", f"must be positive, got {r_n}")

    tau_min = _to_float("sweep.tau_min", raw["sweep.tau_min"]) if "sweep.tau_min" in raw else None
    tau_max = _to_float("sweep.tau_max", raw["sweep.tau_max"]) if "sweep.tau_max" in raw else None
    if (tau_min is None) != (tau_max is None):
        raise ConfigError("sweep.tau_min", "give both sweep.tau_min and sweep.tau_max")
    if tau_min is not None:
        if not 0.0 < tau_min < tau_max:
            raise ConfigError("sweep.tau_min", f"need 0 < tau_min < tau_max, got [{tau_min}, {tau_max}]")
    points_per_decade = _to_int("sweep.points_per_decade", raw.get("sweep.points_per_decade", "20"))
    if points_per_decade < 5:
        raise ConfigError("sweep.points_per_decade", "fits need at least 5 points per decade")

    window_min = _to_float("fit.window_min", raw["fit.window_min"]) if "fit.window_min" in raw else None
    window_max = _to_float("fit.window_max", raw["fit.window_max"]) if "fit.window_max" in raw else None
    if tau_min is not None:
        lo = tau_min if window_min is None else window_min
        hi = tau_max if window_max is None else window_max
        if not tau_min <= lo < hi <= tau_max:
            raise ConfigError("fit.window_min", "fit window must lie inside the sweep range")
    fit_tolerance = _to_float("fit.tolerance", raw.get("fit.tolerance", "0.05"))
    if not fit_tolerance > 0.0:
        raise ConfigError("fit.tolerance", f"must be positive, got {fit_tolerance}")

    observables = tuple(
        token.strip() for token in raw.get("observables", ", ".join(OBSERVABLES)).split(",") if token.strip()
    )
    if not observables:
        raise ConfigError("observables", "need at least one observable")
    unknown = [obs for obs in observables if obs not in OBSERVABLES]
    if unknown:
        raise ConfigError("observables", f"unknown observables {unknown}; known: {list(OBSERVABLES)}")
    if len(set(observables)) < len(observables):
        raise ConfigError("observables", f"observables listed more than once: {list(observables)}")

    rtol = _to_float("integrator.rtol", raw.get("integrator.rtol", "1e-10"))
    atol = _to_float("integrator.atol", raw.get("integrator.atol", "1e-12"))
    for key, value in (("integrator.rtol", rtol), ("integrator.atol", atol)):
        if not value > 0.0:
            raise ConfigError(key, f"must be positive, got {value}")

    eta_list = tuple(
        _to_float("size.eta_list", token.strip())
        for token in raw.get("size.eta_list", "").split(",")
        if token.strip()
    )
    for value in eta_list:
        if not value > 0.0:
            raise ConfigError("size.eta_list", f"sizes must be positive, got {value}")

    # every key is valid: resolve the model and the bath once
    model = ModelSpec(kind=kind, eta=eta, omega=omega, qrm_quartic_coeff=qrm_coeff)
    if bath_type == "structured":
        table = auxbath.load_params(params_file) if params_file is not None else auxbath.DEFAULT_OHMIC
        bath = auxbath.AuxBathParams(
            kappa=kappa if "bath.kappa" in raw else table.kappa,
            omega_c=table.omega_c if omega_c is None else omega_c,
            oscillators=table.oscillators,
        )
    elif temperature is not None:
        bath = BathSpec.from_temperature(kappa, temperature, omega)
    else:
        bath = BathSpec(kappa=kappa, n_th=n_th or 0.0)

    return ExperimentConfig(
        model=model,
        bath=bath,
        g_final=g_final,
        r_n=r_n,
        tau_min=tau_min,
        tau_max=tau_max,
        points_per_decade=points_per_decade,
        window_min=window_min,
        window_max=window_max,
        fit_tolerance=fit_tolerance,
        observables=observables,
        output_path=raw.get("output.path", "out"),
        rtol=rtol,
        atol=atol,
        eta_list=eta_list,
        raw=tuple(sorted(raw.items())),
    )


def load_config(path, environ=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read, override (environment then explicit) and validate a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), source=str(path))
    raw.update(env_overrides(environ))
    if overrides:
        for key, value in overrides.items():
            if key not in _KNOWN_KEYS:
                raise ConfigError(key, "unknown configuration key (override)")
            raw[key] = value
    return build_config(raw)

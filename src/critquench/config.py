"""Flat-text experiment configuration: parsing, validation, hashing.

A config file is ``key = value`` lines with ``#`` comments; keys are
dotted (``sweep.tau_min = 1e3``), each set at most once.  Environment
variables prefixed with ``CRITQUENCH_`` override file keys
(``CRITQUENCH_SWEEP_TAU_MIN=500`` sets ``sweep.tau_min``; the first
underscore-separated token is the section).  Every report line produced from a config carries the
12-hex-digit hash of its canonical form, so numbers stay traceable to
the exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

from . import auxbath
from ._ode import DEFAULT_SETTINGS, IntegratorSettings
from .errors import ConfigError
from .model import CRITICAL_COUPLING, OBSERVABLES, ModelKind, ModelSpec
from .moments import BathSpec

ENV_PREFIX = "CRITQUENCH_"

#: Every configuration key and its default text; ``None`` marks a key
#: without one (optional, or required by the commands that read it).
_DEFAULTS: dict[str, str | None] = {
    "model.kind": "thermodynamic",
    "model.eta": "inf",
    "model.omega": "1.0",
    "bath.type": "markovian",
    "bath.kappa": "0.0",
    "bath.temperature": None,
    "bath.n_th": None,
    "bath.params_file": None,
    "bath.omega_c": None,
    "protocol.g_final": "1.0",
    "protocol.r_n": "1.0",
    "sweep.tau_min": None,
    "sweep.tau_max": None,
    "sweep.points_per_decade": "20",
    "fit.window_min": None,
    "fit.window_max": None,
    "fit.tolerance": "0.05",
    "observables": ", ".join(OBSERVABLES),
    "output.path": "out",
    "integrator.rtol": repr(DEFAULT_SETTINGS.rtol),
    "integrator.atol": repr(DEFAULT_SETTINGS.atol),
    "size.eta_list": "",
}
_KNOWN_KEYS = frozenset(_DEFAULTS)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string mapping."""
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
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
        if key in line_of:
            raise ConfigError(key, f"set more than once ({source}:{line_of[key]} and {lineno})")
        line_of[key] = lineno
        raw[key] = value.strip()
    return raw


def env_overrides(environ=None) -> dict[str, str]:
    """Collect CRITQUENCH_* environment variables as config overrides."""
    environ = os.environ if environ is None else environ
    sections = {key.partition(".")[0] for key in _KNOWN_KEYS if "." in key}
    out: dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        tail = name[len(ENV_PREFIX):].lower()
        head, _, rest = tail.partition("_")
        key = f"{head}.{rest}" if head in sections and rest else tail
        if key not in _KNOWN_KEYS:
            raise ConfigError(name, f"environment override does not map to a known key ({key})")
        out[key] = value
    return out


def _number(raw: dict[str, str], key: str, bound: str = "", *, convert=float, allow_inf=False, text=None):
    """Parse the numeric ``key``, or ``text``, one item of its list.

    An absent key takes its default, and one without a default reads as
    None.  A float must be finite (``allow_inf`` admits ``inf``); a
    ``bound`` of ``"positive"`` or ``"nonnegative"`` is then enforced.
    """
    text = raw.get(key, _DEFAULTS[key]) if text is None else text
    if text is None:
        return None
    try:
        value = convert(text)
    except ValueError:
        expected = "an integer" if convert is int else "a number"
        raise ConfigError(key, f"expected {expected}, got {text!r}") from None
    if convert is float and not (math.isfinite(value) or (allow_inf and value == math.inf)):
        raise ConfigError(key, f"expected a finite number, got {text!r}")
    if (bound == "positive" and not value > 0.0) or (bound == "nonnegative" and not value >= 0.0):
        raise ConfigError(key, f"must be {bound}, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with a canonical hash.

    Built only by :func:`build_config`, which resolves everything once:
    the bath is a :class:`BathSpec` (Markovian) or the oscillator table
    of a structured bath, with its ``kappa``/``omega_c`` overrides;
    ``settings`` carries ``integrator.*`` and ``fit_window`` is the
    ``fit.*`` window, defaulting to the sweep range.
    """

    model: ModelSpec
    bath: BathSpec | auxbath.AuxBathParams
    g_final: float
    r_n: float
    tau_min: float | None
    tau_max: float | None
    points_per_decade: int
    fit_window: tuple[float | None, float | None]
    fit_tolerance: float
    observables: tuple[str, ...]
    output_path: str
    settings: IntegratorSettings
    eta_list: tuple[float, ...]
    raw: tuple[tuple[str, str], ...] = field(compare=False)

    @property
    def config_hash(self) -> str:
        canonical = "\n".join(f"{k} = {v}" for k, v in sorted(self.raw))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    @property
    def bath_type(self) -> str:
        return "structured" if isinstance(self.bath, auxbath.AuxBathParams) else "markovian"

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
    kind_text = raw.get("model.kind", _DEFAULTS["model.kind"]).lower()
    try:
        kind = ModelKind(kind_text)
    except ValueError:
        raise ConfigError(
            "model.kind", f"must be one of thermodynamic/qrm/lmg, got {kind_text!r}"
        ) from None
    eta = _number(raw, "model.eta", "positive", allow_inf=True)
    if kind is ModelKind.THERMODYNAMIC and math.isfinite(eta):
        raise ConfigError("model.eta", "finite eta requires model.kind qrm or lmg")
    omega = _number(raw, "model.omega", "positive")

    bath_type = raw.get("bath.type", _DEFAULTS["bath.type"]).lower()
    if bath_type not in ("markovian", "structured"):
        raise ConfigError("bath.type", f"must be markovian or structured, got {bath_type!r}")
    kappa = _number(raw, "bath.kappa", "nonnegative")
    if "bath.temperature" in raw and "bath.n_th" in raw:
        raise ConfigError("bath.temperature", "give either bath.temperature or bath.n_th, not both")
    temperature = _number(raw, "bath.temperature", "nonnegative")
    n_th = _number(raw, "bath.n_th", "nonnegative")
    params_file = raw.get("bath.params_file")
    omega_c = _number(raw, "bath.omega_c", "positive")
    if bath_type == "structured" and (temperature is not None or n_th is not None):
        given = "bath.temperature" if temperature is not None else "bath.n_th"
        raise ConfigError(given, "structured baths are zero-temperature; the oscillator chain takes none")
    if bath_type == "markovian" and (params_file is not None or omega_c is not None):
        raise ConfigError("bath.params_file", "oscillator parameters apply to structured baths only")
    if bath_type == "structured" and "bath.kappa" in raw and kappa == 0.0:
        raise ConfigError(
            "bath.kappa",
            "a structured bath cannot be isolated; omit the key to use the table's kappa",
        )

    g_final = _number(raw, "protocol.g_final")
    if not 0.0 <= g_final <= 1.0:
        raise ConfigError("protocol.g_final", f"must lie in [0, 1], got {g_final}")
    r_n = _number(raw, "protocol.r_n", "positive")

    tau_min = _number(raw, "sweep.tau_min")
    tau_max = _number(raw, "sweep.tau_max")
    if (tau_min is None) != (tau_max is None):
        raise ConfigError("sweep.tau_min", "give both sweep.tau_min and sweep.tau_max")
    if tau_min is not None and not 0.0 < tau_min < tau_max:
        raise ConfigError("sweep.tau_min", f"need 0 < tau_min < tau_max, got [{tau_min}, {tau_max}]")
    points_per_decade = _number(raw, "sweep.points_per_decade", convert=int)
    if points_per_decade < 5:
        raise ConfigError("sweep.points_per_decade", "fits need at least 5 points per decade")

    window_min = _number(raw, "fit.window_min")
    window_max = _number(raw, "fit.window_max")
    fit_window = (
        tau_min if window_min is None else window_min,
        tau_max if window_max is None else window_max,
    )
    if tau_min is not None and not tau_min <= fit_window[0] < fit_window[1] <= tau_max:
        raise ConfigError("fit.window_min", "fit window must lie inside the sweep range")
    fit_tolerance = _number(raw, "fit.tolerance", "positive")

    observables = tuple(
        token.strip() for token in raw.get("observables", _DEFAULTS["observables"]).split(",") if token.strip()
    )
    if not observables:
        raise ConfigError("observables", "need at least one observable")
    unknown = [obs for obs in observables if obs not in OBSERVABLES]
    if unknown:
        raise ConfigError("observables", f"unknown observables {unknown}; known: {list(OBSERVABLES)}")
    if len(set(observables)) < len(observables):
        raise ConfigError("observables", f"observables listed more than once: {list(observables)}")

    settings = IntegratorSettings(
        rtol=_number(raw, "integrator.rtol", "positive"), atol=_number(raw, "integrator.atol", "positive")
    )
    eta_list = tuple(
        _number(raw, "size.eta_list", "positive", text=token)
        for token in raw.get("size.eta_list", _DEFAULTS["size.eta_list"]).split(",")
        if token.strip()
    )

    # every key is valid: resolve the model and the bath once
    model = ModelSpec(kind=kind, eta=eta, omega=omega)
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
        fit_window=fit_window,
        fit_tolerance=fit_tolerance,
        observables=observables,
        output_path=raw.get("output.path", _DEFAULTS["output.path"]),
        settings=settings,
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

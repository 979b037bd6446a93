"""Config-driven sweeps over quench time and system size.

A sweep propagates every requested quench time, extracts final-time
observables of its isolated and open legs, fits the dissipative excess
against the quench time and judges the fitted exponent against the
applicable scaling prediction.  Output is a CSV table (one row per
quench time) plus a plain-text fit report whose every line carries the
config hash.

The whole quench-time grid runs in one process, as one batch of one
member per quench time for either bath, in physical time: each member
leaves the batch when its ramp ends.  A member's isolated state is
``U U^T`` and its open state ``U (1 + e) U^T``, U the isolated mode's
propagator, whose steps read nothing of a Markovian bath: a Markovian
sweep's isolated column is the same for every bath.  Only when the
batch fails does every row run alone, so a failing quench time loses
both its legs and the rest of the sweep completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments
from ._ode import IntegratorSettings
from .config import ExperimentConfig
from .errors import ConfigError, IntegrationFailure
from .model import ModelKind
from .scaling import PowerLawFit, ScalingPrediction, fit_power_law, fit_report_lines, predict_regime

# unused since a structured sweep is one batch; the benchmark reads it (ROADMAP item 1)
STRUCTURED_ISOLATED_SETTINGS = IntegratorSettings(rtol=1e-13, atol=1e-15)
_ISOLATED_CACHE: dict[tuple, dict[str, np.ndarray]] = {}  # filled only by _isolated_leg_cached (ROADMAP item 1)
_ISOLATED_CACHE_MAX = 32


def tau_grid(tau_min: float, tau_max: float, points_per_decade: int) -> np.ndarray:
    """Log-spaced quench times, endpoints included."""
    decades = math.log10(tau_max / tau_min)
    n_points = max(2, round(decades * points_per_decade) + 1)
    return np.geomspace(tau_min, tau_max, n_points)


def _leg(config: ExperimentConfig, taus, bath, settings: IntegratorSettings) -> dict[str, np.ndarray]:
    _, vs = bath.propagate(taus, config.g_final, config.r_n, config.model, settings=settings)
    return moments.observables_from_covariance(vs[-1], config.g_final, config.model.omega)


def _isolated_leg_cached(config: ExperimentConfig, taus) -> dict[str, np.ndarray]:
    """Isolated final observables of a structured sweep, cached in-process."""
    # no caller since _legs runs both legs as one batch; the benchmark patches it (ROADMAP item 1)
    key = (config.model, config.g_final, config.r_n, tuple(taus.tolist()))
    hit = _ISOLATED_CACHE.get(key)
    if hit is None:
        hit = _leg(config, taus, moments.ISOLATED, settings=STRUCTURED_ISOLATED_SETTINGS)
        if len(_ISOLATED_CACHE) >= _ISOLATED_CACHE_MAX:
            _ISOLATED_CACHE.pop(next(iter(_ISOLATED_CACHE)))
        _ISOLATED_CACHE[key] = hit
    return hit


def _open_leg(config: ExperimentConfig, taus) -> dict[str, np.ndarray]:
    # no caller since _legs runs both legs as one batch; the benchmark patches it (ROADMAP item 1)
    return _leg(config, taus, config.bath, config.settings)


def _legs(config: ExperimentConfig, taus, eta=None) -> tuple[dict, dict]:
    """Isolated and open final observables of one batch over ``taus``.

    The batch holds one member per quench time, at the bath's terms: its
    isolated column is the member's ``U U^T`` and its open column its
    V (:func:`critquench.moments.propagate_batch`).  ``eta`` optionally
    gives each quench time its size.
    """
    model = config.model
    members = moments.broadcast_members(taus, config.g_final, config.r_n, model.eta if eta is None else eta)
    _, vs, isolated = moments.propagate_batch(*config.bath.lyapunov_terms(model), model, *members, config.settings)
    return tuple(moments.observables_from_covariance(v[-1], config.g_final, model.omega) for v in (isolated, vs))


def _leg_with_row_fallback(config: ExperimentConfig, taus, legs) -> tuple[dict, dict, dict[int, str]]:
    """Run the legs as one batch; on failure retry row by row to isolate it.

    A row that fails loses the values of both legs; the errors map its
    index to the failure message.
    """
    try:
        return *legs(config, taus), {}
    except IntegrationFailure:
        pass
    values = tuple({obs: np.full(len(taus), math.nan) for obs in config.observables} for _ in range(2))
    errors: dict[int, str] = {}
    for i, tau in enumerate(taus):
        try:
            single = legs(config, np.asarray([tau]))
        except IntegrationFailure as exc:
            errors[i] = str(exc)
            continue
        for leg_values, leg_single in zip(values, single):
            for obs in leg_values:
                leg_values[obs][i] = leg_single[obs][0]
    return *values, errors


def compute_chunk(config: ExperimentConfig, taus) -> tuple[dict, dict, dict[int, str]]:
    """Isolated and open observable arrays for the whole quench-time grid.

    Both legs run as one batch over ``taus`` (:func:`_legs`); if that
    fails, every row runs alone, and the errors map row index to the
    message of a row that failed.
    """
    return _leg_with_row_fallback(config, np.asarray(taus, dtype=float), _legs)


@dataclass(frozen=True)
class SweepRow:
    """One quench time: per-observable (isolated, open, delta) triples."""

    tau_q: float
    values: dict[str, tuple[float, float, float]]
    failed: bool = False
    error: str = ""


@dataclass(frozen=True)
class FitOutcome:
    observable: str
    fit: PowerLawFit | None
    prediction: ScalingPrediction
    passed: bool
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    fits: list[FitOutcome]
    csv_text: str
    report_text: str
    config_hash: str
    n_failed_rows: int

    @property
    def all_fits_pass(self) -> bool:
        return all(f.passed for f in self.fits)

    def fit_for(self, observable: str) -> FitOutcome:
        for f in self.fits:
            if f.observable == observable:
                return f
        raise KeyError(observable)

    def delta_arrays(self, observable: str):
        taus = np.array([r.tau_q for r in self.rows])
        deltas = np.array([r.values[observable][2] for r in self.rows])
        return taus, deltas


def _format_csv(config: ExperimentConfig, rows: list[SweepRow]) -> str:
    header = ["tau_q"]
    for obs in config.observables:
        header += [f"{obs}_isolated", f"{obs}_open", f"{obs}_delta"]
    lines = [",".join(header)]
    for row in rows:
        cells = [f"{row.tau_q:.17g}"]
        for obs in config.observables:
            cells += [f"{v:.17g}" for v in row.values[obs]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _fit_observable(config: ExperimentConfig, taus, deltas, observable: str) -> FitOutcome:
    prediction = predict_regime(
        observable,
        critical=config.is_critical,
        isolated=config.is_isolated,
        r_n=config.r_n,
    )
    finite = np.isfinite(deltas)
    try:
        fit = fit_power_law(taus[finite], deltas[finite], window=config.fit_window)
    except ValueError as exc:
        return FitOutcome(observable, None, prediction, passed=False, error=str(exc))
    passed = abs(fit.exponent - prediction.value) <= config.fit_tolerance
    return FitOutcome(observable, fit, prediction, passed=passed)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Execute a quench-time sweep end to end.

    Deterministic: identical configs produce byte-identical CSV and
    report text.  Failed rows carry NaNs and are excluded from fits;
    the run continues.
    """
    config.require_sweep()
    taus = tau_grid(config.tau_min, config.tau_max, config.points_per_decade)
    iso, opn, errors = compute_chunk(config, taus)

    rows: list[SweepRow] = []
    for i, tau in enumerate(taus):
        values = {}
        for obs in config.observables:
            iso_v = float(iso[obs][i])
            opn_v = float(opn[obs][i])
            values[obs] = (iso_v, opn_v, opn_v - iso_v)
        rows.append(
            SweepRow(tau_q=float(tau), values=values, failed=i in errors, error=errors.get(i, ""))
        )

    # isolated sweeps are judged on the observable itself, open sweeps
    # on the excess
    fit_target = 0 if config.is_isolated else 2
    fits = [
        _fit_observable(config, taus, np.array([r.values[obs][fit_target] for r in rows]), obs)
        for obs in config.observables
    ]

    report = _render_report(config, rows, fits)
    return SweepResult(
        rows=rows,
        fits=fits,
        csv_text=_format_csv(config, rows),
        report_text=report,
        config_hash=config.config_hash,
        n_failed_rows=sum(r.failed for r in rows),
    )


def _render_report(config: ExperimentConfig, rows, fits: list[FitOutcome]) -> str:
    tag = f"cfg={config.config_hash}"
    fitted = "isolated value" if config.is_isolated else "dissipative excess (open - isolated)"
    lines = [
        f"sweep of {len(rows)} quench times in [{rows[0].tau_q:.6g}, {rows[-1].tau_q:.6g}]  {tag}",
        f"model = {config.model.kind.value}  eta = {config.model.eta:g}  g_final = {config.g_final:g}  "
        f"r_n = {config.r_n:g}  bath = {config.bath_type}  kappa = {config.bath.kappa:g}  {tag}",
        f"points_per_decade = {config.points_per_decade}  fitted quantity = {fitted}  {tag}",
    ]
    n_failed = sum(r.failed for r in rows)
    if n_failed:
        lines.append(f"failed rows = {n_failed}  {tag}")
        for row in rows:
            if row.failed:
                lines.append(f"  tau_q = {row.tau_q:.6g}: {row.error}  {tag}")
    for outcome in fits:
        lines.append("")
        if outcome.fit is None:
            lines.append(f"observable = {outcome.observable}  verdict = ERROR  {tag}")
            lines.append(f"  {outcome.error}  {tag}")
        else:
            lines.extend(
                fit_report_lines(
                    outcome.observable,
                    outcome.fit,
                    outcome.prediction,
                    config.fit_tolerance,
                    config.config_hash,
                    outcome.passed,
                )
            )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SizeCrossoverResult:
    table: list[tuple[float, str, float, float]]  # eta, observable, b, stderr
    csv_text: str
    report_text: str
    config_hash: str
    n_failed_rows: int

    def exponents_for(self, observable: str) -> list[tuple[float, float]]:
        return [(eta, b) for eta, obs, b, _ in self.table if obs == observable]


def run_size_crossover(config: ExperimentConfig) -> SizeCrossoverResult:
    """Fit the excess exponent at each system size in ``size.eta_list``.

    Every size and quench time of both legs is one member of one batch,
    so all of them share one adaptive step sequence.
    """
    config.require_sweep()
    if config.model.kind is ModelKind.THERMODYNAMIC:
        raise ConfigError("model.kind", "size crossover needs a finite-size model (qrm or lmg)")
    if config.bath_type != "markovian":
        raise ConfigError("bath.type", "size crossover supports markovian baths only")
    etas = np.array(sorted(set(config.eta_list)))
    if etas.size < 3:
        raise ConfigError("size.eta_list", "need at least 3 distinct sizes")
    if config.is_isolated:
        raise ConfigError("bath.kappa", "size crossover fits the excess; kappa must be positive")

    taus = tau_grid(config.tau_min, config.tau_max, config.points_per_decade)
    eta_rep = np.repeat(etas, taus.size)
    tau_tile = np.tile(taus, etas.size)
    iso, opn = _legs(config, tau_tile, eta=eta_rep)

    tag = f"cfg={config.config_hash}"
    table = []
    csv_lines = ["eta,observable,b,stderr_b"]
    report = [
        f"size crossover over eta = {[f'{e:g}' for e in etas]}  {tag}",
        f"model = {config.model.kind.value}  kappa = {config.bath.kappa:g}  "
        f"window = [{config.fit_window[0]:g}, {config.fit_window[1]:g}]  {tag}",
    ]
    for obs in config.observables:
        prediction = predict_regime(obs, critical=config.is_critical, isolated=False, r_n=config.r_n)
        exponents = []
        for j, eta in enumerate(etas):
            sl = slice(j * taus.size, (j + 1) * taus.size)
            delta = opn[obs][sl] - iso[obs][sl]
            fit = fit_power_law(taus, delta, window=config.fit_window)
            table.append((float(eta), obs, fit.exponent, fit.stderr_b))
            csv_lines.append(f"{eta:.17g},{obs},{fit.exponent:.17g},{fit.stderr_b:.17g}")
            exponents.append(fit.exponent)
        universal = float(prediction.exponent)
        gaps = [abs(b - universal) for b in exponents]
        monotone = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
        report.append("")
        report.append(
            f"observable = {obs}  universal = {prediction.exponent} ({universal:.6g})  {tag}"
        )
        for (eta, _, b, err), g in zip(table[-len(etas):], gaps):
            report.append(f"  eta = {eta:<10g} b = {b:.6f} +- {err:.6f}  |b - universal| = {g:.4f}  {tag}")
        report.append(
            f"  approach to universal value monotone in eta: {'yes' if monotone else 'no'}  {tag}"
        )
    return SizeCrossoverResult(
        table=table,
        csv_text="\n".join(csv_lines) + "\n",
        report_text="\n".join(report) + "\n",
        config_hash=config.config_hash,
        n_failed_rows=0,
    )

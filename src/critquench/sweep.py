"""Config-driven sweeps over quench time and system size.

A sweep propagates every requested quench time as one vectorized batch
per leg (isolated and open), extracts final-time observables, fits the
dissipative excess against the quench time and judges the fitted
exponent against the applicable scaling prediction.  Output is a CSV
table (one row per quench time) plus a plain-text fit report whose
every line carries the config hash.

Rows are independent; when ``sweep.chunk_size`` splits them, chunks may
run in a process pool sized by ``sweep.workers``.  The chunk partition
is fixed by the config alone, so results are byte-identical regardless
of how many workers execute them.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import auxbath, moments
from ._ode import IntegratorSettings
from .config import ExperimentConfig
from .errors import ConfigError, IntegrationFailure
from .model import ModelKind
from .scaling import PowerLawFit, ScalingPrediction, fit_power_law, fit_report_lines, predict_regime

#: The structured-bath excess can be as small as 1e-9 of the working
#: scale, so its isolated reference leg always runs extra tight.
STRUCTURED_ISOLATED_SETTINGS = IntegratorSettings(rtol=1e-13, atol=1e-15)

_ISOLATED_CACHE: dict[tuple, dict[str, np.ndarray]] = {}
_ISOLATED_CACHE_MAX = 32


def tau_grid(tau_min: float, tau_max: float, points_per_decade: int) -> np.ndarray:
    """Log-spaced quench times, endpoints included."""
    decades = math.log10(tau_max / tau_min)
    n_points = max(2, round(decades * points_per_decade) + 1)
    return np.geomspace(tau_min, tau_max, n_points)


def _observable_arrays_at_final(config: ExperimentConfig, sigma, re_sigma10):
    n, dx, dp, _, e_r = moments._observables_arrays(sigma, re_sigma10, config.g_final, config.omega)
    return {"n": n, "dx": dx, "dp": dp, "e_r": e_r}


def _markovian_leg(
    config: ExperimentConfig, taus, kappa: float, n_th: float, eta=None, settings=None
):
    if settings is None:
        settings = IntegratorSettings(rtol=config.rtol, atol=config.atol)
    _, ys = moments.propagate_moments_batch(
        taus,
        config.g_final,
        config.r_n,
        config.model_spec(),
        kappa,
        n_th,
        eta=eta,
        settings=settings,
    )
    return _observable_arrays_at_final(config, ys[-1, :, 0], ys[-1, :, 1])


def _isolated_leg_cached(config: ExperimentConfig, taus) -> dict[str, np.ndarray]:
    key = (
        config.model_kind,
        config.eta,
        config.omega,
        config.qrm_quartic_coeff,
        config.g_final,
        config.r_n,
        config.rtol,
        config.atol,
        config.bath_type,
        tuple(float(t) for t in taus),
    )
    hit = _ISOLATED_CACHE.get(key)
    if hit is not None:
        return hit
    # read at call time: reference runs tighten it by rebinding the name
    settings = STRUCTURED_ISOLATED_SETTINGS if config.bath_type == "structured" else None
    values = _markovian_leg(config, taus, 0.0, 0.0, settings=settings)
    if len(_ISOLATED_CACHE) >= _ISOLATED_CACHE_MAX:
        _ISOLATED_CACHE.pop(next(iter(_ISOLATED_CACHE)))
    _ISOLATED_CACHE[key] = values
    return values


def structured_params(config: ExperimentConfig) -> auxbath.AuxBathParams:
    params = (
        auxbath.load_params(config.params_file)
        if config.params_file is not None
        else auxbath.DEFAULT_OHMIC
    )
    kappa = config.kappa if config.kappa > 0.0 else params.kappa
    omega_c = config.omega_c if config.omega_c is not None else params.omega_c
    return auxbath.AuxBathParams(kappa=kappa, omega_c=omega_c, oscillators=params.oscillators)


def _structured_leg(config: ExperimentConfig, taus) -> dict[str, np.ndarray]:
    settings = IntegratorSettings(rtol=config.rtol, atol=config.atol)
    _, vs, system = auxbath.propagate_covariance_batch(
        taus,
        config.g_final,
        config.r_n,
        structured_params(config),
        model_omega=config.omega,
        settings=settings,
    )
    sigma, sigma10 = auxbath.system_block_moments(vs[-1], system.n_modes)
    return _observable_arrays_at_final(config, sigma, np.real(sigma10))


def _open_leg(config: ExperimentConfig, taus) -> dict[str, np.ndarray]:
    if config.bath_type == "structured":
        return _structured_leg(config, taus)
    bath = config.bath_spec()
    return _markovian_leg(config, taus, bath.kappa, bath.n_th)


def _nan_values(config: ExperimentConfig, count: int) -> dict[str, np.ndarray]:
    return {obs: np.full(count, math.nan) for obs in config.observables}


def _leg_with_row_fallback(config: ExperimentConfig, taus, leg) -> tuple[dict, dict[int, str]]:
    """Run a leg as one batch; on failure retry row by row to isolate it."""
    try:
        return leg(config, taus), {}
    except IntegrationFailure:
        pass
    values = _nan_values(config, len(taus))
    errors: dict[int, str] = {}
    for i, tau in enumerate(taus):
        try:
            single = leg(config, np.asarray([tau]))
        except IntegrationFailure as exc:
            errors[i] = str(exc)
            continue
        for obs in values:
            values[obs][i] = single[obs][0]
    return values, errors


def compute_chunk(config: ExperimentConfig, taus) -> tuple[dict, dict, dict[int, str]]:
    """Isolated and open observable arrays for one block of quench times."""
    taus = np.asarray(taus, dtype=float)
    errors: dict[int, str] = {}
    if config.run_isolated or config.is_isolated:
        iso, errors = _leg_with_row_fallback(
            config, taus, lambda cfg, ts: dict(_isolated_leg_cached(cfg, ts))
        )
    else:
        iso = _nan_values(config, len(taus))
    if config.is_isolated:
        opn = {obs: np.array(vals, copy=True) for obs, vals in iso.items()}
    else:
        opn, open_errors = _leg_with_row_fallback(config, taus, _open_leg)
        errors.update(open_errors)
    return iso, opn, errors


def _chunk_worker(payload):
    config, taus = payload
    return compute_chunk(config, np.asarray(taus))


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


def _split_chunks(taus: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    if chunk_size <= 0 or chunk_size >= taus.size:
        return [taus]
    return [taus[i : i + chunk_size] for i in range(0, taus.size, chunk_size)]


def _run_chunks(config: ExperimentConfig, chunks):
    if len(chunks) > 1 and config.workers != 1:
        max_workers = config.workers if config.workers > 0 else None
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(_chunk_worker, [(config, c.tolist()) for c in chunks]))
    return [compute_chunk(config, c) for c in chunks]


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
        critical=config.g_final == 1.0,
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
    chunks = _split_chunks(taus, config.chunk_size)
    results = _run_chunks(config, chunks)

    rows: list[SweepRow] = []
    for chunk, (iso, opn, errors) in zip(chunks, results):
        for i, tau in enumerate(chunk):
            values = {}
            for obs in config.observables:
                iso_v = float(iso[obs][i])
                opn_v = float(opn[obs][i])
                values[obs] = (iso_v, opn_v, opn_v - iso_v)
            failed = i in errors
            rows.append(
                SweepRow(tau_q=float(tau), values=values, failed=failed, error=errors.get(i, ""))
            )
    rows.sort(key=lambda r: r.tau_q)

    fits = []
    if config.run_isolated or config.is_isolated:
        # isolated sweeps are judged on the observable itself, open
        # sweeps on the excess; without the reference leg there is no
        # cleanly scaling quantity to fit
        fit_target = 0 if config.is_isolated else 2
        taus_arr = np.array([r.tau_q for r in rows])
        for obs in config.observables:
            series = np.array([r.values[obs][fit_target] for r in rows])
            fits.append(_fit_observable(config, taus_arr, series, obs))

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
        f"model = {config.model_kind.value}  eta = {config.eta:g}  g_final = {config.g_final:g}  "
        f"r_n = {config.r_n:g}  bath = {config.bath_type}  kappa = {config.kappa:g}  {tag}",
        f"points_per_decade = {config.points_per_decade}  fitted quantity = {fitted}  {tag}",
    ]
    n_failed = sum(r.failed for r in rows)
    if n_failed:
        lines.append(f"failed rows = {n_failed}  {tag}")
        for row in rows:
            if row.failed:
                lines.append(f"  tau_q = {row.tau_q:.6g}: {row.error}  {tag}")
    if not fits:
        lines.append(f"fits skipped (isolated reference leg disabled)  {tag}")
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

    Sizes are swept in one batch per leg; all quench times for all
    sizes share the adaptive step sequence.
    """
    config.require_sweep()
    if config.model_kind is ModelKind.THERMODYNAMIC:
        raise ConfigError("model.kind", "size crossover needs a finite-size model (qrm or lmg)")
    if config.bath_type != "markovian":
        raise ConfigError("bath.type", "size crossover supports markovian baths only")
    if len(config.eta_list) < 3:
        raise ConfigError("size.eta_list", "need at least 3 sizes")
    if config.is_isolated:
        raise ConfigError("bath.kappa", "size crossover fits the excess; kappa must be positive")

    etas = np.array(sorted(config.eta_list))
    taus = tau_grid(config.tau_min, config.tau_max, config.points_per_decade)
    eta_rep = np.repeat(etas, taus.size)
    tau_tile = np.tile(taus, etas.size)
    bath = config.bath_spec()
    iso = _markovian_leg(config, tau_tile, 0.0, 0.0, eta=eta_rep)
    opn = _markovian_leg(config, tau_tile, bath.kappa, bath.n_th, eta=eta_rep)

    tag = f"cfg={config.config_hash}"
    table = []
    csv_lines = ["eta,observable,b,stderr_b"]
    report = [
        f"size crossover over eta = {[f'{e:g}' for e in etas]}  {tag}",
        f"model = {config.model_kind.value}  kappa = {config.kappa:g}  "
        f"window = [{config.fit_window[0]:g}, {config.fit_window[1]:g}]  {tag}",
    ]
    for obs in config.observables:
        prediction = predict_regime(obs, critical=config.g_final == 1.0, isolated=False, r_n=config.r_n)
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

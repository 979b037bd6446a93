"""Power-law fits and the universal scaling predictions they are judged by.

Fits are ordinary least squares on (log tau_q, log value); predictions
are carried as exact rationals and only become floats at comparison
time, so 2/3 never turns into 0.6667-noise in a report.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InsufficientDataError, NonLoggableDataError, RegimeError
from .model import MEAN_FIELD, CriticalExponents


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of value = amplitude * tau_q ** exponent."""

    amplitude: float
    exponent: float
    stderr_b: float
    n_points: int
    window: tuple[float, float]
    residual_rms: float

    def __str__(self):
        return (
            f"a = {self.amplitude:.6g}, b = {self.exponent:.6f} +- {self.stderr_b:.6f} "
            f"({self.n_points} points in [{self.window[0]:g}, {self.window[1]:g}])"
        )


def fit_power_law(tau_q, values, window: tuple[float, float] | None = None) -> PowerLawFit:
    """Fit a single power law in log-log space, unweighted.

    ``window = (tau_min, tau_max)`` restricts the fit (inclusive).  Any
    non-positive value inside the window is an error rather than being
    dropped: a sign flip in sweep data means something upstream needs
    investigation, not silent exclusion.
    """
    tau_q = np.asarray(tau_q, dtype=float)
    values = np.asarray(values, dtype=float)
    if tau_q.shape != values.shape or tau_q.ndim != 1:
        raise ValueError("tau_q and values must be matching 1-d arrays")
    if np.any(tau_q <= 0.0):
        raise DomainError("quench times must be positive")
    if window is not None:
        w_lo, w_hi = float(window[0]), float(window[1])
        if not w_lo < w_hi:
            raise DomainError(f"window must satisfy tau_min < tau_max, got {window}")
        mask = (tau_q >= w_lo) & (tau_q <= w_hi)
        tau_q, values = tau_q[mask], values[mask]
    else:
        if tau_q.size:
            w_lo, w_hi = float(np.min(tau_q)), float(np.max(tau_q))
        else:
            w_lo = w_hi = math.nan
    if tau_q.size < 3:
        raise InsufficientDataError(f"need at least 3 points in window, have {tau_q.size}")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        bad = tau_q[(values <= 0.0) | ~np.isfinite(values)]
        raise NonLoggableDataError(
            f"non-positive or non-finite values at tau_q = {bad.tolist()}"
        )

    x = np.log(tau_q)
    y = np.log(values)
    n = x.size
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    resid = y - (intercept + slope * x)
    ssr = float(np.sum(resid**2))
    stderr = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    return PowerLawFit(
        amplitude=math.exp(intercept),
        exponent=slope,
        stderr_b=stderr,
        n_points=n,
        window=(w_lo, w_hi),
        residual_rms=math.sqrt(ssr / n),
    )


class Regime(str, enum.Enum):
    """Which scaling law applies to a sweep."""

    KZ_ISOLATED = "kz-isolated"
    AKZ_CRITICAL = "akz-critical"
    AKZ_LINEAR = "akz-linear"
    ADIABATIC = "adiabatic"


@dataclass(frozen=True)
class ScalingPrediction:
    """Exact predicted exponent for one observable in one regime."""

    observable: str
    regime: Regime
    exponent: Fraction
    r_n: Fraction

    @property
    def value(self) -> float:
        return float(self.exponent)

    def __str__(self):
        return f"{self.observable} [{self.regime.value}, r_n={self.r_n}]: {self.exponent} = {self.value!r}"


def _ramp_exponent(r_n) -> Fraction:
    # floats convert exactly (1/2, 5/4 and friends are dyadic)
    if not (r_n > 0 and math.isfinite(r_n)):
        raise DomainError(f"r_n must be positive and finite, got {r_n}")
    return Fraction(r_n)


def predicted_akz_exponent(
    exponents: CriticalExponents = MEAN_FIELD,
    observable: str = "e_r",
    r_n=1,
    at_critical: bool = True,
) -> ScalingPrediction:
    """Exponent of the dissipative excess versus quench time.

    Ramps ending at the critical coupling pick up the universal value
    ``(z_nu r_n + 1 - gamma_A r_n) / (z_nu r_n + 1)``; away from it the
    excess grows linearly (exponent exactly 1).

    The value is the exponent of the excess at first order in the bath
    coupling ``kappa``; once ``kappa (2 n_th + 1) tau_q`` nears one the
    excess saturates and no longer follows it.  At the marginal ramp
    ``z_nu r_n = 1`` (``r_n = 2`` at mean field) the number of quanta the
    bath injects grows as the integral of the inverse gap, which diverges
    logarithmically, so the excess is ``tau_q**b ln(tau_q / tau_0)`` with
    ``b`` the value returned here.  For ``z_nu r_n > 1`` PAPER.md does
    not settle the form: at ``r_n = 3`` the measured local ``e_r`` slopes
    fall from about 0.70 to 0.64 over ``tau_q = 2e2..6e3``, against 0.4
    from the formula.  The formula is returned for every ``r_n > 0``.
    """
    r_n = _ramp_exponent(r_n)
    gamma = exponents.gamma_of(observable)
    if not at_critical:
        return ScalingPrediction(observable, Regime.AKZ_LINEAR, Fraction(1), r_n)
    denom = exponents.z_nu * r_n + 1
    return ScalingPrediction(observable, Regime.AKZ_CRITICAL, (denom - gamma * r_n) / denom, r_n)


#: Exponent of the isolated sweep when the ramp stops short of criticality.
ADIABATIC_EXPONENT = Fraction(-2)


def predict_regime(
    observable: str,
    critical: bool,
    isolated: bool,
    r_n=1,
    exponents: CriticalExponents = MEAN_FIELD,
) -> ScalingPrediction:
    """Prediction matching a sweep's (critical, isolated, ramp) setup.

    Isolated critical sweeps follow ``-gamma_A r_n / (z_nu r_n + 1)``
    (the adiabatic-impulse boundary raised to the observable's
    exponent); isolated off-critical sweeps decay adiabatically as
    ``tau_q^-2``; open sweeps delegate to the excess prediction.
    """
    r_n = _ramp_exponent(r_n)
    if not isolated:
        return predicted_akz_exponent(exponents, observable, r_n, at_critical=critical)
    if not critical:
        return ScalingPrediction(observable, Regime.ADIABATIC, ADIABATIC_EXPONENT, r_n)
    gamma = exponents.gamma_of(observable)
    denom = exponents.z_nu * r_n + 1
    return ScalingPrediction(observable, Regime.KZ_ISOLATED, -gamma * r_n / denom, r_n)


def kz_akz_tradeoff(tau_q, r_c: float, r_o: float, gamma_a: float, z_nu: float):
    """Total observable model: closed KZ decay plus open linear-rate growth.

    ``r_c tau^(-gamma/(z_nu+1)) + r_o tau^((z_nu+1-gamma)/(z_nu+1))``.
    """
    tau_q = np.asarray(tau_q, dtype=float)
    u = gamma_a / (z_nu + 1.0)
    return r_c * tau_q ** (-u) + r_o * tau_q ** (1.0 - u)


def _check_rates(r_c: float, r_o: float, z_nu: float) -> None:
    if not (r_c > 0.0 and r_o > 0.0):
        raise DomainError("amplitudes r_c and r_o must be positive")
    if not z_nu > 0.0:
        raise DomainError(f"z_nu must be positive, got {z_nu}")


def optimal_quench_time(r_c: float, r_o: float, gamma_a: float, z_nu: float) -> float:
    """Quench time minimizing the closed-plus-open tradeoff curve.

    Exists only for 0 < gamma_a < z_nu + 1, where the closed branch
    decays and the open branch grows; the two exponents sum to one, so
    the minimizer is exactly ``r_c gamma_a / (r_o (z_nu + 1 - gamma_a))``.
    """
    _check_rates(r_c, r_o, z_nu)
    if not 0.0 < gamma_a < z_nu + 1.0:
        if -z_nu - 1.0 < gamma_a < 0.0:
            raise RegimeError(
                f"no minimum for gamma_a = {gamma_a}; this regime has an "
                "inflection point instead (see inflection_time)"
            )
        raise RegimeError(
            f"no minimum for gamma_a = {gamma_a}; the curve has no interior "
            "extremum or inflection when |gamma_a| >= z_nu + 1"
        )
    return r_c * gamma_a / (r_o * (z_nu + 1.0 - gamma_a))


def inflection_time(r_c: float, r_o: float, gamma_a: float, z_nu: float) -> float:
    """Inflection point of the tradeoff curve, in closed form.

    Applies for -z_nu - 1 < gamma_a < 0, where both branches grow and
    the curvature changes sign once.  With ``u = gamma_a / (z_nu + 1)``
    the second derivative
    ``u (u + 1) r_c tau^(-u-2) - u (1 - u) r_o tau^(-u-1)`` vanishes only
    at ``tau = r_c (1 + u) / (r_o (1 - u))``, which is
    ``r_c (1 + gamma_a + z_nu) / (r_o (1 - gamma_a + z_nu))``.
    """
    _check_rates(r_c, r_o, z_nu)
    if not -z_nu - 1.0 < gamma_a < 0.0:
        if 0.0 < gamma_a < z_nu + 1.0:
            raise RegimeError(
                f"no inflection for gamma_a = {gamma_a}; this regime has a "
                "minimum instead (see optimal_quench_time)"
            )
        raise RegimeError(
            f"no inflection for gamma_a = {gamma_a}; the curvature never "
            "changes sign when |gamma_a| >= z_nu + 1"
        )
    return r_c * (1.0 + gamma_a + z_nu) / (r_o * (1.0 - gamma_a + z_nu))


def fit_report_lines(
    observable: str,
    fit: PowerLawFit,
    prediction: ScalingPrediction,
    tolerance: float,
    config_hash: str,
    passed: bool,
) -> list[str]:
    """Render one observable's fit block; every line carries the config hash.

    ``passed`` is the caller's verdict, printed as PASS or FAIL.
    """
    gap = abs(fit.exponent - prediction.value)
    verdict = "PASS" if passed else "FAIL"
    tag = f"cfg={config_hash}"
    return [
        f"observable = {observable}  regime = {prediction.regime.value}  r_n = {prediction.r_n}  {tag}",
        f"window = [{fit.window[0]:.6g}, {fit.window[1]:.6g}]  n_points = {fit.n_points}  {tag}",
        f"a = {fit.amplitude:.10g}  b = {fit.exponent:.10g}  stderr_b = {fit.stderr_b:.3g}  "
        f"residual_rms = {fit.residual_rms:.3g}  {tag}",
        f"predicted = {prediction.exponent} ({prediction.value:.10g})  {tag}",
        f"|b - predicted| = {gap:.6g}  tolerance = {tolerance:g}  verdict = {verdict}  {tag}",
    ]

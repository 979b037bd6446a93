"""One benchmark repetition in a fresh interpreter.

``run.py`` starts this script once per repetition, so every timing pays
the imports and the empty isolated-leg cache that a user of the CLI
pays.  Modes:

* ``setup``: time ``import critquench`` plus ``load_config`` only;
* ``sweep``: set up, then run the workload's sweep once with nothing
  hooked but a four-call capture of the fit inputs (size crossover
  only, whose result carries no excess arrays);
* ``trace``: as ``sweep``, with :class:`tracer.Tracer` installed.

Times are reported twice: as wall seconds (``*_wall_s``) and in
reference seconds (``setup_s``, ``sweep_s``), the wall time rescaled by
the CPU speed that :class:`SpeedClock` samples during it.  On shared
CPUs whose speed swings by up to 2x within seconds, the rescaled times
repeat much more closely than wall times; they cannot see time the
host takes the CPU away entirely.

The last stdout line is one JSON object describing the repetition.
Run from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/probe.py --workload markovian_sweep --mode sweep
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

#: workload name -> (shipped config, sweep entry point in critquench.sweep)
WORKLOADS = {
    "markovian_sweep": ("configs/critical_akz_zero_temperature.cfg", "run_sweep"),
    "structured_sweep": ("configs/ohmic_critical.cfg", "run_sweep"),
    "size_crossover": ("configs/qrm_size_crossover.cfg", "run_size_crossover"),
}

MONOTONE_TAG = "approach to universal value monotone in eta: "

#: duration of either calibration loop at the reference speed
CAL_REF_S = 2e-4
SAMPLE_PERIOD_S = 0.05


def python_loop() -> None:
    """Calibration for set-up, which runs before numpy is imported."""
    x = 0.5
    for _ in range(3000):
        x = x * 0.999 + 0.001


def numpy_loop() -> None:
    """Calibration for sweeps: small-array arithmetic, like their RHS calls."""
    import numpy

    b = numpy.full((44, 3), 0.5)
    for _ in range(60):
        b = b * 0.999 + 0.001


class SpeedClock:
    """Time a region in wall seconds and in reference seconds.

    Every ``SAMPLE_PERIOD_S`` of wall time a ``SIGALRM`` handler times a
    fixed calibration loop on the same CPU, in the same process.  The
    region's wall time, less the handler's own, is scaled by the mean of
    ``CAL_REF_S / loop time``: the share of reference speed the CPU gave.
    """

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def start(self, loop) -> None:
        self.loop = loop
        self.samples: list[float] = []
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """``(wall seconds, reference seconds)`` since :meth:`start`."""
        wall = time.perf_counter() - self.t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._on_alarm(signal.SIGALRM, None)
        wall -= self.handler_s
        speed = sum(CAL_REF_S / c for c in self.samples) / len(self.samples)
        return wall, wall * speed


def capture_fit_inputs(sweep_mod) -> list:
    """Record the ``(tau, delta)`` series every ``fit_power_law`` call receives."""
    calls = []
    inner = sweep_mod.fit_power_law

    def fit_power_law(tau_q, values, window=None):
        calls.append([float(v) for v in values])
        return inner(tau_q, values, window=window)

    sweep_mod.fit_power_law = fit_power_law
    return calls


def outcome(config, entry: str, result, fit_inputs: list) -> dict:
    """Everything the checks and accuracy metrics need from one sweep result.

    ``delta`` and ``b`` map a series name to the excess per quench time
    and to its fitted exponent; ``verdicts`` holds the fit verdicts of a
    sweep, or the monotone-approach verdicts of a size crossover.
    """
    if entry == "run_sweep":
        rows = len(result.rows)
        delta = {obs: [r.values[obs][2] for r in result.rows] for obs in config.observables}
        b = {f.observable: f.fit.exponent for f in result.fits if f.fit is not None}
        verdicts = {f.observable: ("PASS" if f.passed else "FAIL") for f in result.fits}
    else:
        etas = sorted(config.eta_list)
        names = [f"{obs}@eta={eta:g}" for obs in config.observables for eta in etas]
        delta = dict(zip(names, fit_inputs))
        rows = sum(len(v) for v in fit_inputs)
        b = {f"{obs}@eta={eta:g}": bv for eta, obs, bv, _ in result.table}
        monotone = [
            line.split(MONOTONE_TAG)[1].split()[0]
            for line in result.report_text.splitlines()
            if MONOTONE_TAG in line
        ]
        verdicts = dict(zip(config.observables, monotone))
    return {
        "csv_sha256": hashlib.sha256(result.csv_text.encode()).hexdigest(),
        "rows": rows,
        "n_failed_rows": result.n_failed_rows,
        "delta": delta,
        "b": b,
        "verdicts": verdicts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "sweep", "trace"))
    args = ap.parse_args(argv)
    config_path, entry = WORKLOADS[args.workload]

    clock = SpeedClock()
    clock.start(python_loop)
    import critquench
    import critquench.sweep as sweep_mod
    from critquench.config import load_config

    t_import = time.perf_counter()
    config = load_config(Path(config_path))
    config_load_s = time.perf_counter() - t_import
    setup_wall_s, setup_s = clock.stop()

    record = {
        "mode": args.mode,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "config_load_s": config_load_s,
        "config_hash": config.config_hash,
    }
    if args.mode != "setup":
        if sweep_mod._ISOLATED_CACHE:
            raise RuntimeError("isolated-leg cache is not empty before the timed sweep")
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        fit_inputs = capture_fit_inputs(sweep_mod) if entry == "run_size_crossover" else []
        run = getattr(sweep_mod, entry)
        numpy_loop()  # first call pays numpy's lazy set-up outside the timing
        clock.start(numpy_loop)
        result = run(config)
        record["sweep_wall_s"], record["sweep_s"] = clock.stop()
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.metrics(record["sweep_wall_s"] + clock.handler_s)
        record.update(outcome(config, entry, result, fit_inputs))

    import numpy
    import scipy

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "critquench": critquench.__version__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

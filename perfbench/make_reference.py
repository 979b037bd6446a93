"""Regenerate ``reference.json``: the accuracy reference of every workload.

Each workload runs three times through the package's own sweep code:

* at its shipped settings, for the fit verdicts the checks demand;
* at the ``REFERENCE`` tightening, whose ``delta`` and ``b`` become the
  reference;
* at the looser ``CHECK`` tightening.  The difference between the two
  tightenings is the reference's floor: ``run.py`` reads no accuracy
  error below it.

A tightening lowers ``integrator.rtol`` / ``integrator.atol`` through
``load_config(overrides=...)``, runs the structured bath's isolated leg
at the same tolerances, and divides the structured open leg's
stiffness step cap, which no tolerance reaches.  Run from the
repository root; name workloads to regenerate only those::

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from critquench import auxbath, sweep
from critquench._ode import IntegratorSettings
from critquench.config import load_config

from probe import WORKLOADS, capture_fit_inputs, outcome

OUT = Path(__file__).resolve().parent / "reference.json"
COMMAND = "PYTHONPATH=src python3 perfbench/make_reference.py"


@dataclass(frozen=True)
class Tightening:
    rtol: float
    atol: float
    step_cap_divisor: float


# At the shipped step cap the structured excess is off by ~3e-5
# relative, at every tolerance; it settles once the cap is divided by 4.
REFERENCE = Tightening(rtol=1e-14, atol=1e-16, step_cap_divisor=8.0)
CHECK = Tightening(rtol=1e-13, atol=1e-15, step_cap_divisor=4.0)


def run_workload(name: str, tight: Tightening | None) -> dict:
    """One sweep of ``name``, at its shipped settings when ``tight`` is None."""
    config_path, entry = WORKLOADS[name]
    overrides = {} if tight is None else {"integrator.rtol": str(tight.rtol), "integrator.atol": str(tight.atol)}
    config = load_config(Path(config_path), environ={}, overrides=overrides)
    saved = (sweep.STRUCTURED_ISOLATED_SETTINGS, auxbath._drift_spectral_radius, sweep.fit_power_law)
    sweep._ISOLATED_CACHE.clear()
    if tight is not None:
        radius = saved[1]
        sweep.STRUCTURED_ISOLATED_SETTINGS = IntegratorSettings(rtol=tight.rtol, atol=tight.atol)
        auxbath._drift_spectral_radius = lambda system: tight.step_cap_divisor * radius(system)
    fit_inputs = capture_fit_inputs(sweep) if entry == "run_size_crossover" else []
    try:
        result = getattr(sweep, entry)(config)
    finally:
        sweep.STRUCTURED_ISOLATED_SETTINGS, auxbath._drift_spectral_radius, sweep.fit_power_law = saved
        sweep._ISOLATED_CACHE.clear()
    return {"config_hash": config.config_hash, **outcome(config, entry, result, fit_inputs)}


def max_errors(got: dict, ref: dict) -> dict[str, float]:
    return {
        "delta_rel": max(
            abs(d - r) / abs(r)
            for name, series in ref["delta"].items()
            for d, r in zip(got["delta"][name], series)
        ),
        "b_abs": max(abs(got["b"][name] - b) for name, b in ref["b"].items()),
    }


def main(names: list[str]) -> int:
    doc = json.loads(OUT.read_text()) if OUT.is_file() else {"workloads": {}}
    workloads = doc["workloads"]
    for name in names or WORKLOADS:
        shipped = run_workload(name, None)
        ref = run_workload(name, REFERENCE)
        check = run_workload(name, CHECK)
        workloads[name] = {
            "config": WORKLOADS[name][0],
            "config_hash": shipped["config_hash"],
            "verdicts": shipped["verdicts"],
            "floor": max_errors(check, ref),
            "shipped_error": max_errors(shipped, ref),
            "delta": ref["delta"],
            "b": ref["b"],
        }
        print(name, workloads[name]["floor"], workloads[name]["shipped_error"], flush=True)
    doc.update(command=COMMAND, reference=asdict(REFERENCE), check=asdict(CHECK))
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

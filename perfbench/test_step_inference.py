"""The tracer's step inference against the stepper's own step budget.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

from critquench import moments
from critquench._ode import IntegratorSettings
from critquench.errors import IntegrationFailure
from critquench.model import ModelSpec

import run
from tracer import CALLS_PER_STEP, STARTUP_CALLS, StepCounts, Tracer, infer_steps

TAUS = np.array([5.0, 10.0])


def propagate(rtol: float, max_steps: int = 50_000_000):
    settings = IntegratorSettings(rtol=rtol, atol=1e-2 * rtol, max_steps=max_steps)
    return moments.propagate_moments_batch(TAUS, 1.0, 1.0, ModelSpec(), 0.0, 0.0, settings=settings)


def traced_solve(rtol: float):
    tracer = Tracer()
    tracer.install()
    try:
        propagate(rtol)
    finally:
        tracer.uninstall()
    (solve,) = tracer.solves
    return solve


@pytest.mark.parametrize("rtol", [1e-4, 1e-6])
def test_inferred_steps_match_the_step_budget(rtol):
    solve = traced_solve(rtol)
    counts = infer_steps(solve.eval_times, solve.max_step)
    assert counts.attempted == (len(solve.eval_times) - STARTUP_CALLS) / CALLS_PER_STEP
    assert counts.accepted + counts.rejected == counts.attempted
    assert counts.rejected > 0

    # with a budget of k attempts the stepper stops at the end of the
    # last accepted one among them, which the inference must reproduce
    ends = solve.eval_times[STARTUP_CALLS + CALLS_PER_STEP - 1 :: CALLS_PER_STEP]
    last_accepted, accepted = 0.0, 1
    for k in range(1, counts.attempted):
        if ends[k - 1] < ends[k]:
            last_accepted, accepted = ends[k - 1], accepted + 1
        with pytest.raises(IntegrationFailure) as failure:
            propagate(rtol, max_steps=k)
        assert failure.value.t_last == last_accepted
    propagate(rtol, max_steps=counts.attempted)
    assert accepted == counts.accepted


def test_pinned_steps_sit_at_max_step():
    solve = traced_solve(1e-4)
    counts = infer_steps(solve.eval_times, solve.max_step)
    assert 0 < counts.pinned < counts.accepted
    assert counts.pinned <= counts.cap_share < counts.accepted
    uncapped = StepCounts(counts.attempted, counts.accepted, counts.rejected, 0, 0.0)
    assert infer_steps(solve.eval_times, np.inf) == uncapped


def test_tracer_restores_the_patched_layers():
    before = (moments.solve_to, moments.propagate_moments_batch)
    traced_solve(1e-4)
    assert (moments.solve_to, moments.propagate_moments_batch) == before


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

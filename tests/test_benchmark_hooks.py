"""The package names that the benchmark harness in ``perfbench/`` relies on.

``perfbench/probe.py``, ``tracer.py`` and ``make_reference.py`` read and
patch ``critquench`` attributes by name, read the loaded ``config`` by
attribute, and the tracer counts steps only through ``moments.solve_to``
and ``auxbath.solve_to``.  Every sweep steps by collocation and books
none; only the Runge-Kutta reference ``moments.propagate_moments_batch``
still calls ``solve_to``, in the pattern the tracer infers steps from.
A rename in the package would break the benchmark without failing any
other test.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np

import critquench
from critquench import _rk_tableau, auxbath, moments, sweep
from critquench.config import ExperimentConfig, build_config, parse_config_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: module behind each name the harness files bind to a critquench module
ALIASES = {
    "critquench": critquench,
    "sweep": sweep,
    "sweep_mod": sweep,
    "moments": moments,
    "auxbath": auxbath,
    "_rk_tableau": _rk_tableau,
}
#: owner of the attributes the harness reads off the ``config`` it loads
CONFIG = "critquench.config.ExperimentConfig"


def harness_names() -> set[tuple[str, str]]:
    """``(module, attribute)`` pairs read, patched or imported by the harness."""
    names = set()
    for file in ("probe.py", "tracer.py", "make_reference.py"):
        for node in ast.walk(ast.parse((PERFBENCH / file).read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ALIASES:
                names.add((ALIASES[node.value.id].__name__, node.attr))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "config":
                names.add((CONFIG, node.attr))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_patch":
                module, name = node.args[:2]
                names.add((ALIASES[module.id].__name__, name.value))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("critquench"):
                names.update((node.module, alias.name) for alias in node.names)
    # probe.py looks its sweep entry points up by name
    names.update({("critquench.sweep", "run_sweep"), ("critquench.sweep", "run_size_crossover")})
    return names


def test_harness_names_exist():
    names = harness_names()
    # the scan finds the names the reference runs and the tracer patch
    for expected in (
        ("critquench.sweep", "_ISOLATED_CACHE"),
        ("critquench.sweep", "STRUCTURED_ISOLATED_SETTINGS"),
        ("critquench.auxbath", "_drift_spectral_radius"),
        ("critquench.moments", "solve_to"),
        ("critquench.auxbath", "solve_to"),
        ("critquench.sweep", "_leg_with_row_fallback"),
    ):
        assert expected in names
    for expected in ("observables", "eta_list", "config_hash"):
        assert (CONFIG, expected) in names
    missing = [(m, a) for m, a in sorted(names) if not exists(m, a)]
    assert not missing


def exists(owner: str, name: str) -> bool:
    # a dataclass field without a default is no class attribute: read the fields
    if owner == CONFIG:
        properties = {n for n, v in vars(ExperimentConfig).items() if isinstance(v, property)}
        return name in {f.name for f in dataclasses.fields(ExperimentConfig)} | properties
    return hasattr(importlib.import_module(owner), name)


def spy_solves(monkeypatch):
    """Record ``(members, RHS times)`` of every ``solve_to`` call, per module."""
    solves = {"moments": [], "auxbath": []}

    def spy(module):
        real = module.solve_to

        def solve_to(rhs, t0, t1, y0, settings=moments.DEFAULT_SETTINGS, t_samples=None):
            times = []
            solves[module.__name__.rsplit(".", 1)[1]].append((y0.shape[0], times))

            def counted(t, y):
                times.append(t)
                return rhs(t, y)

            return real(counted, t0, t1, y0, settings=settings, t_samples=t_samples)

        monkeypatch.setattr(module, "solve_to", solve_to)

    spy(moments)
    spy(auxbath)
    return solves


def assert_tracer_call_pattern(times, t0=0.0, t1=1.0):
    # the tracer infers steps from the scalar RHS times of each solve_to:
    # f(t0), the initial-step probe, then one call per stage after the first
    assert all(np.ndim(t) == 0 for t in times)
    assert (len(times) - 2) % _rk_tableau.N_STAGES == 0
    assert times[0] == t0 and times[-1] == t1


def spy_spans(monkeypatch):
    """Record ``(t0, t1, members)`` of every ``collocate_to`` span."""
    spans, real = [], moments.collocate_to

    def collocate_to(rule, system, advance, t0, t1, u0, step):
        spans.append((t0, t1, u0.shape[0]))
        return real(rule, system, advance, t0, t1, u0, step)

    monkeypatch.setattr(moments, "collocate_to", collocate_to)
    return spans


def test_structured_batch_is_one_solve_per_leg(monkeypatch):
    # one batch of one member per quench time in physical time: one collocation
    # span per quench time, chained from 0 to tau_max, the ended members leaving
    # at each boundary
    text = "bath.type = structured\nsweep.tau_min = 5\nsweep.tau_max = 10\nsweep.points_per_decade = 5\nobservables = e_r\n"
    cfg = build_config(parse_config_text(text))
    taus = sweep.tau_grid(cfg.tau_min, cfg.tau_max, cfg.points_per_decade)
    solves, spans = spy_solves(monkeypatch), spy_spans(monkeypatch)
    sweep.compute_chunk(cfg, taus)
    assert not solves["auxbath"] and not solves["moments"] and not sweep._ISOLATED_CACHE
    assert spans == [(0.0 if k == 0 else taus[k - 1], tau, taus.size - k) for k, tau in enumerate(taus)]


def test_markovian_legs_are_one_solve(monkeypatch):
    # the Markovian legs are the same one batch, and no sweep calls solve_to
    text = "bath.kappa = 1e-3\nsweep.tau_min = 5\nsweep.tau_max = 10\nsweep.points_per_decade = 5\nobservables = e_r\n"
    cfg = build_config(parse_config_text(text))
    taus = sweep.tau_grid(cfg.tau_min, cfg.tau_max, cfg.points_per_decade)
    solves, spans = spy_solves(monkeypatch), spy_spans(monkeypatch)
    sweep.compute_chunk(cfg, taus)
    assert not solves["auxbath"] and not solves["moments"]
    assert spans == [(0.0 if k == 0 else taus[k - 1], tau, taus.size - k) for k, tau in enumerate(taus)]


def test_reference_is_one_solve_in_the_tracers_call_pattern(monkeypatch):
    # perfbench/test_step_inference.py traces the reference's one solve_to
    solves = spy_solves(monkeypatch)
    moments.propagate_moments_batch([5.0, 10.0], 1.0, 1.0, moments.ModelSpec(), [0.0, 1e-3], 0.0)
    ((members, times),) = solves["moments"]
    assert members == 2 and not solves["auxbath"]
    assert_tracer_call_pattern(times)


def test_leg_anchors_are_the_columns_of_the_one_batch():
    # the tracer patches _isolated_leg_cached and _open_leg; they stay views of
    # _legs, not a second leg path, and nothing fills the cache
    for text in ("bath.kappa = 1e-3\n", "bath.type = structured\n"):
        cfg = build_config(parse_config_text(text + "sweep.tau_min = 5\nsweep.tau_max = 10\nobservables = e_r, dp\n"))
        taus = sweep.tau_grid(cfg.tau_min, cfg.tau_max, cfg.points_per_decade)
        legs = sweep._legs(cfg, taus)
        for anchor, column in zip((sweep._isolated_leg_cached(cfg, taus), sweep._open_leg(cfg, taus)), legs):
            assert anchor.keys() == column.keys()
            assert all(anchor[obs].tobytes() == column[obs].tobytes() for obs in column)
        assert not sweep._ISOLATED_CACHE

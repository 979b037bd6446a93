"""The public names and the README's library example agree with the package."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import critquench as cq
from critquench import moments
from critquench.auxbath import DEFAULT_OHMIC

README = Path(__file__).resolve().parent.parent / "README.md"


def library_surface_code():
    """The parsed ```python block of the README's "Library surface" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    return ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1))


def test_every_exported_name_resolves():
    assert len(set(cq.__all__)) == len(cq.__all__)
    missing = [name for name in cq.__all__ if not hasattr(cq, name)]
    assert not missing


def test_readme_uses_only_exported_names():
    used = {
        node.attr
        for node in ast.walk(library_surface_code())
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cq"
    }
    assert used and used <= set(cq.__all__), sorted(used - set(cq.__all__))


def test_readme_imports_resolve():
    imports = [
        (node.module, alias.name)
        for node in ast.walk(library_surface_code())
        if isinstance(node, ast.ImportFrom) and node.module.startswith("critquench.")
        for alias in node.names
    ]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("bath", [cq.BathSpec(kappa=1e-2, n_th=0.5), DEFAULT_OHMIC], ids=["markovian", "structured"])
def test_a_bath_answers_its_terms_and_integrate_runs_them_on_the_engine(bath):
    # a bath is its drift base and diffusion; integrate is one propagate_batch call on them
    model = cq.ModelSpec(kind=cq.ModelKind.LMG, eta=30.0)
    assert bath.is_isolated is False and not hasattr(bath, "propagate")
    protocol = cq.QuenchProtocol(g_final=0.9, tau_q=20.0, r_n=1.25)
    got = cq.integrate(protocol, model=model, bath=bath, samples=5)
    members = moments.broadcast_members(protocol.tau_q, protocol.g_final, protocol.r_n, model.eta)
    s_samples = np.linspace(0.0, 1.0, 5)
    ss, vs, _ = moments.propagate_batch(*bath.lyapunov_terms(model), model, *members, s_samples=s_samples)
    assert got.ts.tobytes() == (ss * protocol.tau_q).tobytes()
    assert got.vs.tobytes() == vs[:, 0].tobytes()

"""The public names and the README's library example agree with the package."""

import ast
import importlib
import re
from pathlib import Path

import critquench as cq

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

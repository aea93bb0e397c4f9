"""The demos use only names the package exports; checked statically.

The demo scripts are parsed, never run, so this stays fast while still
catching a demo that imports a renamed or removed function.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import npspectra

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _package_imports(path):
    """Every name in a ``from npspectra import ...`` statement."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "npspectra":
            for alias in node.names:
                yield alias.name


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = [name for name in _package_imports(path)
               if name not in npspectra.__all__]
    assert not missing, f"{path.name} imports unknown names {missing}"


def test_public_names_resolve():
    unresolved = [name for name in npspectra.__all__
                  if not hasattr(npspectra, name)]
    assert not unresolved

"""Every module-level import of the package is used.

Each module of ``npspectra`` is parsed with ``ast``; a name bound by a
module-level ``import`` or ``from ... import`` must be read somewhere in
the module (annotations count), unless the module re-exports it through
``__all__``.  ``from __future__`` imports bind no name.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import npspectra

MODULES = sorted(Path(npspectra.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    """(line, name) of each module-level import that the module never
    reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\n"
              "from typing import Optional, Sequence\n"
              "from .errors import ConfigError\n"
              "__all__ = ['ConfigError']\n"
              "def f(x: Sequence) -> int:\n    return np.size(x)\n")
    assert _unused_imports(source) == [(2, "os"), (4, "Optional")]

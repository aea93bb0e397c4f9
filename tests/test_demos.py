"""The demos use only names the package exports, and each one runs.

The imports are checked statically, which names a demo that imports a
renamed or removed function; each demo also runs to exit 0 in a
subprocess, which catches a changed signature or return value.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    src = os.path.dirname(os.path.dirname(npspectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(path)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.iterdir())

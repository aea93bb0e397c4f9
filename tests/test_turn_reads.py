"""The turn of a grid is decided in one place of ``operators``.

A grid without the turn is the turn of period 1, so every step of the
symmetric structure runs one code path, and only ``_row_mirrors`` tells
the two apart: it returns the period n_v, which the row nodes, the row
fill, the block split, the row join and the block names take from it.
``operators.py`` is parsed with ``ast``; an attribute ``turn`` may be read
only inside the function ``_row_mirrors``.
"""
from __future__ import annotations

import ast
from pathlib import Path

from npspectra import operators


def _turn_reads(source: str, attr: str = "turn",
                owner: str = "_row_mirrors") -> list:
    """(line, enclosing function) of each read of the attribute ``attr``
    outside the function ``owner``; None for a read at module level."""
    found = []

    def scan(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr \
                and func != owner:
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            scan(child, func)

    scan(ast.parse(source), None)
    return found


def test_only_row_mirrors_reads_the_turn():
    source = Path(operators.__file__).read_text(encoding="utf-8")
    assert _turn_reads(source) == []


def test_the_scan_finds_a_read_of_the_turn():
    source = ("def _row_mirrors(grid):\n    return grid.turn\n"
              "class Op:\n"
              "    def f(self):\n"
              "        '''grid.turn in a docstring is no read'''\n"
              "        return self.grid.turn\n"
              "def g(grid):\n"
              "    def inner():\n        return grid.turn\n"
              "    return grid.mirrors\n"
              "TURN = make().turn\n")
    assert _turn_reads(source) == [(6, "f"), (9, "inner"), (11, None)]

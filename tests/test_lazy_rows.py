"""Operators hold representative rows; the n x n matrix only when read."""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from npspectra import (DiscreteOperator, assemble_operators, build_grid,
                       dump_operator, ellipsoid, mobius_invert, operators,
                       peanut, read_matrix_dump, spectrum, sphere)
from npspectra.pipeline import compute_report, write_outputs

from conftest import make_config


@pytest.fixture
def fill_calls(monkeypatch):
    """List that records how many matrix rows each ``_fill_turns`` call
    writes: n for a fill of the n x n matrix, one chunk for a dump."""
    calls = []
    turns = operators._fill_turns

    def counted_turns(rows, table, sources, n_v, out, start=0):
        calls.append(out.shape[0])
        return turns(rows, table, sources, n_v, out, start)

    monkeypatch.setattr(operators, "_fill_turns", counted_turns)
    return calls


@pytest.fixture
def join_calls(monkeypatch):
    """List that records the node count of each ``_join_rows`` call: each
    joins a symmetrized operator's blocks into its rows."""
    calls = []
    join = operators._join_rows

    def joined(grid, stacks):
        calls.append(grid.n_nodes)
        return join(grid, stacks)

    monkeypatch.setattr(operators, "_join_rows", joined)
    return calls


# the digests pin the bytes of the symmetrized matrix, so that joining
# its rows on first read changes no bit of it
@pytest.mark.parametrize("surface, resolution, digest", [
    ({"name": "sphere"}, [24, 48], "00d02f5d3c726bc4"),
    ({"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0}, [16, 32],
     "f03d7ee0064c93b9"),
    # the z-mirror fixes the equator row (odd n_u)
    ({"name": "sphere"}, [13, 24], "b16abe4d01e0e503"),
    # the turn without the z-mirror
    ({"invert": {"center": [0.0, 0.0, 3.0], "radius": 1.0,
                 "inner": {"name": "torus"}}}, [16, 16],
     "ca286685f5caf2bf"),
], ids=["sphere-24x48", "ellipsoid-16x32", "sphere-13x24",
        "inverted-torus-16x16"])
def test_rows_are_joined_only_for_a_dump_and_once(join_calls, tmp_path,
                                                  surface, resolution,
                                                  digest):
    doc = {"surface": surface, "resolution": resolution,
           "outputs": [{"report_json": "report.json"},
                       {"eigen_csv": "eigen.csv"}]}
    config = make_config(doc)
    report, sym = compute_report(config)
    write_outputs(report, sym, config, str(tmp_path / "report"))
    assert join_calls == []
    assert "rows" not in sym.__dict__ and sym.stacks
    assert sym.n == report.diagnostics["n_nodes"] and join_calls == []
    dumped = make_config({**doc, "outputs": [{"matrix_dump": "op.bin"}]})
    write_outputs(report, sym, dumped, str(tmp_path))
    assert join_calls == [sym.n] and sym.stacks is None
    matrix = sym.matrix
    assert join_calls == [sym.n]
    assert hashlib.sha256(matrix.tobytes()).hexdigest()[:16] == digest
    assert np.array_equal(read_matrix_dump(str(tmp_path / "op.bin"))[0],
                          matrix)


# The join holds the rows, its irfft's complex input and one mirrored
# copy of the rows, never the n_u x n of all the meridian nodes.
@pytest.mark.parametrize("make_grid", [
    lambda: build_grid(sphere(), 24, 48),
    lambda: build_grid(sphere(), 48, 96),
    lambda: build_grid(peanut(), 32, 64),
    lambda: build_grid(ellipsoid(2.0, 1.2, 1.0), 16, 32),
], ids=["sphere-24x48", "sphere-48x96", "peanut-32x64", "ellipsoid-16x32"])
def test_the_join_allocates_a_few_times_its_rows(make_grid):
    _, _, sym = spectrum.symmetrized_spectrum(make_grid())
    tracemalloc.start()
    try:
        rows = sym.rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape[0] < sym.n
    assert peak <= 4 * rows.nbytes, peak / rows.nbytes


# At 2048 nodes the assembly's fixed temporaries (near-field chunks and
# chart samples, a few MiB) stay well below one n x n array; on smaller
# grids they alone exceed it, with or without n x n arrays.
# The ellipsoid splits into its 8 mirror characters, the peanut into the
# even and the odd block of each of its 33 rotation modes.
@pytest.mark.parametrize("make_surface, n_blocks", [
    (lambda: ellipsoid(2.0, 1.2, 1.0), 8), (peanut, 66)],
    ids=["ellipsoid", "peanut"])
def test_operator_blocks_allocate_less_than_one_full_matrix(make_surface,
                                                            n_blocks):
    grid = build_grid(make_surface(), 32, 64)
    n = grid.n_nodes
    assert grid.mirrors.shape[0] == 8
    tracemalloc.start()
    try:
        stacks, _ = spectrum._operator_blocks(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(k) for k, _ in stacks) == n_blocks
    assert peak < 8 * n * n, peak / (8 * n * n)


def test_report_fills_no_matrix(fill_calls):
    config = make_config({"surface": {"name": "ellipsoid",
                                      "a": 2.0, "b": 1.2, "c": 1.0},
                          "resolution": [16, 32]})
    report, sym = compute_report(config)
    assert fill_calls == []
    assert sym.rows.shape[0] < sym.n == report.diagnostics["n_nodes"]


def test_matrix_dump_streams_without_a_fill(fill_calls, tmp_path):
    # 1152 nodes: the dump takes several chunks
    config = make_config({"surface": {"name": "sphere"},
                          "resolution": [24, 48],
                          "outputs": [{"matrix_dump": "op.bin"}]})
    report, sym = compute_report(config)
    assert fill_calls == []
    write_outputs(report, sym, config, base_dir=str(tmp_path))
    assert "matrix" not in sym.__dict__
    # every row gathered once, one chunk at a time, none into an n x n
    step = operators._DUMP_ENTRIES // sym.n
    assert sum(fill_calls) == sym.n and len(fill_calls) > 1
    assert max(fill_calls) <= step
    matrix, basis = read_matrix_dump(str(tmp_path / "op.bin"))
    assert basis == "symmetrized"
    assert np.array_equal(matrix, sym.matrix)
    assert fill_calls[-1] == sym.n


# 8 n^2 = 162 MiB at 4608 nodes, against one chunk and O(n) for the dump
def test_dump_holds_far_less_than_the_matrix(tmp_path):
    grid = build_grid(ellipsoid(2.0, 1.2, 1.0), 48, 96)
    n = grid.n_nodes
    reps = operators._representatives(grid.mirrors)
    rows = np.random.default_rng(0).standard_normal((reps.size, n))
    op = DiscreteOperator(rows, basis="symmetrized", grid=grid)
    path = tmp_path / "op.bin"
    tracemalloc.start()
    try:
        dump_operator(op, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 4, peak / (8 * n * n)
    assert "matrix" not in op.__dict__
    matrix, basis = read_matrix_dump(path)
    assert basis == "symmetrized"
    assert np.array_equal(matrix, op.matrix)


def test_matrix_is_filled_once_and_kept(fill_calls):
    grid = build_grid(sphere(), 12, 24)
    k_op, s_op = assemble_operators(grid)
    assert k_op.rows.shape[0] < grid.n_nodes == k_op.n
    assert k_op.matrix is k_op.matrix
    assert k_op.matrix.shape == (grid.n_nodes, grid.n_nodes)
    assert fill_calls == [grid.n_nodes]
    # the representative rows, here those of the meridian nodes (a, 0)
    # with a <= 11 - a under the z-mirror, are the matrix's own rows
    reps = operators._row_nodes(grid)
    assert grid.turn and np.array_equal(reps, 24 * np.arange(6))
    assert np.array_equal(k_op.matrix[reps], k_op.rows)
    # a full matrix in place of the rows is returned as it is
    full = dataclasses.replace(s_op, rows=s_op.matrix)
    assert full.matrix is s_op.matrix


def test_rows_are_the_matrix_without_mirrors():
    grid = build_grid(mobius_invert(sphere(), (3.0, 0.5, 0.2)), 12, 24)
    assert grid.mirrors.shape == (1, grid.n_nodes)
    k_op, s_op = assemble_operators(grid)
    assert k_op.matrix is k_op.rows
    assert s_op.matrix is s_op.rows

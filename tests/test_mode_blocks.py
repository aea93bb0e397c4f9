"""Rotation-mode block spectra against the mirror route.

On a grid with the turn (u, v) -> (u, v + 2 pi / n_v) and the y-mirror,
``compute_report``, ``symmetrized_spectrum`` and the study assemble the n_u
meridian rows and split K and S into one real block per rotation mode
(``operators._mode_blocks``).  These tests compare every merged number with
the same grid with its turn stripped, which takes the mirror blocks, check
that the meridian rows are those of the unblocked assembly and fill the
matrix and its dump, and check which grids keep the turn.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from npspectra import (TopologyWarning, assemble_operators, build_grid,
                       ellipsoid, mobius_invert, operators, peanut, pipeline,
                       rigid_transform, spectrum, sphere, spheroid, torus)
from test_mirror_blocks import (_ROTATION, _dump_bytes, _egg, _report,
                                _signed, _without_turn)
from test_operators import _two_sphere_union

# surface, resolution; the odd n_v have no v -> pi - v mirror and no mode
# n_v / 2, and torus 4x4 has blocks of 4 nodes
CASES = {
    "sphere-12x24": (sphere, (12, 24)),
    "sphere-12x25": (sphere, (12, 25)),
    "spheroid-12x24": (lambda: spheroid(1.0, 1.6), (12, 24)),
    "peanut-16x32": (peanut, (16, 32)),
    "peanut-16x33": (peanut, (16, 33)),
    "torus-16x16": (torus, (16, 16)),
    "torus-12x15": (torus, (12, 15)),
    "torus-4x4": (torus, (4, 4)),
    # an inversion centred on the axis keeps the turn, not the z-mirror
    "inverted-torus-16x16": (
        lambda: mobius_invert(torus(), (0.0, 0.0, 3.0)), (16, 16)),
}
# the coarse peanut's Gauss-Bonnet integral is 2.005
_COARSE = {"peanut-16x32", "peanut-16x33"}
TOL = 1e-12


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    make_surface, res = CASES[request.param]
    grid = build_grid(make_surface(), *res)
    expected = pytest.warns(TopologyWarning, match="Gauss-Bonnet") \
        if request.param in _COARSE else contextlib.nullcontext()
    with expected:
        report, sym = _report(make_surface(), res)
    with expected, pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "build_grid", _without_turn)
        ref, ref_sym = _report(make_surface(), res)
    return grid, report, sym, ref, ref_sym


def test_grid_keeps_the_turn(case):
    grid, *_ = case
    n_u, n_v = grid.resolution
    assert grid.turn
    # the modes are one stack pair
    ((k, s),), mult = spectrum._operator_blocks(grid)
    assert k.shape == s.shape == (len(mult), n_u, n_u)
    assert len(mult) == n_v // 2 + 1
    # every node counted once over the modes and their multiplicities
    assert n_u * int(np.sum(mult)) == grid.n_nodes
    assert list(mult[:2]) == [1, 2] and mult[-1] == 2 - (n_v + 1) % 2


def test_spectra_match_the_mirror_route(case):
    _, report, _, ref, _ = case
    assert _signed(report).size == _signed(ref).size
    assert np.abs(_signed(report) - _signed(ref)).max() <= TOL
    assert report.singular_values.size == ref.singular_values.size
    assert np.abs(report.singular_values
                  - ref.singular_values).max() <= TOL


def test_diagnostics_match_the_mirror_route(case):
    _, report, _, ref, _ = case
    for key in ("min_eig_negS", "plemelj_residual", "asymmetry_norm"):
        want = ref.diagnostics[key]
        assert abs(report.diagnostics[key] - want) <= TOL * want, key


def test_counts_match_the_mirror_route(case):
    grid, _, _, ref, _ = case
    stripped = dataclasses.replace(grid, turn=False)
    eigs = _signed(ref)
    neg = eigs[eigs < 0]
    gaps = 0.5 * (neg[:-1] + neg[1:])[np.diff(neg) > 1e-9]
    for t in [1e-3, *(-gaps[::8])]:
        count = spectrum._negative_count(grid, t)
        assert count == spectrum._negative_count(stripped, t), t
        assert count == np.count_nonzero(eigs < -t), t


def test_symmetrized_matrix_is_exactly_symmetric(case):
    grid, report, sym, *_ = case
    assert sym.basis == "symmetrized" and sym.n == grid.n_nodes
    assert sym.rows.shape == (grid.resolution[0], grid.n_nodes)
    assert np.array_equal(sym.matrix, sym.matrix.T)
    assert np.abs(np.sort(sla.eigvalsh(sym.matrix))
                  - _signed(report)).max() <= TOL


def test_meridian_rows_are_the_unblocked_rows(case):
    grid, *_ = case
    whole = dataclasses.replace(grid, mirrors=grid.mirrors[:1], turn=False)
    meridian = operators._row_nodes(grid)
    n_u, n_v = grid.resolution
    assert np.array_equal(meridian, n_v * np.arange(n_u))
    for op, ref in zip(assemble_operators(grid), assemble_operators(whole)):
        assert op.rows.shape == (n_u, grid.n_nodes)
        assert np.abs(op.rows - ref.rows[meridian]).max() \
            <= TOL * np.abs(ref.rows[meridian]).max()
        # the other rows are turned copies, equal to the computed ones to
        # rounding
        assert np.abs(op.matrix - ref.matrix).max() \
            <= TOL * np.abs(ref.matrix).max()


def test_k_maps_constants_to_one_half(case):
    grid, *_ = case
    k_op, _ = assemble_operators(grid)
    assert np.abs(k_op.matrix @ np.ones(grid.n_nodes) - 0.5).max() <= TOL


@pytest.mark.parametrize("chunk_rows", [None, 7],
                         ids=["default-chunks", "7-row-chunks"])
def test_matrix_dump_is_the_matrix_byte_for_byte(case, chunk_rows, tmp_path,
                                                 monkeypatch):
    grid, _, sym, *_ = case
    if chunk_rows:
        monkeypatch.setattr(operators, "_DUMP_ENTRIES",
                            chunk_rows * grid.n_nodes)
    k_op, s_op = assemble_operators(grid)
    # a fresh copy of the report's operator, whose matrix is not yet built
    for i, op in enumerate((k_op, s_op, dataclasses.replace(sym))):
        data = _dump_bytes(op, tmp_path / f"op{i}.bin")
        assert "matrix" not in op.__dict__
        assert data == op.matrix.tobytes()


def test_turned_rows_are_shifted_meridian_rows():
    n_u, n_v = 3, 5
    rows = np.arange(n_u * n_u * n_v, dtype=float).reshape(n_u, n_u * n_v)
    out = operators._fill_turns(rows, (n_u, n_v), np.empty((n_u * n_v,
                                                            n_u * n_v)))
    for a in range(n_u):
        for e in range(n_v):
            want = np.roll(rows[a].reshape(n_u, n_v), e, axis=1).ravel()
            assert np.array_equal(out[a * n_v + e], want)


@pytest.mark.parametrize("make_grid, order", [
    (lambda: build_grid(ellipsoid(2.0, 1.2, 1.0), 16, 32), 8),
    (lambda: build_grid(rigid_transform(peanut(), _ROTATION), 16, 32), 1),
    (lambda: build_grid(rigid_transform(sphere(), _ROTATION, (0.4, 0, 0)),
                        12, 24), 1),
    # turned about the z axis: the turn holds, the y-mirror does not
    (lambda: build_grid(rigid_transform(sphere(), sla.expm(np.array(
        [[0, -0.3, 0], [0.3, 0, 0], [0, 0, 0]]))), 12, 24), 2),
    (lambda: build_grid(mobius_invert(sphere(), (3.0, 0.0, 0.0)), 16, 32), 4),
    (_two_sphere_union, 1),
], ids=["ellipsoid", "tilted-peanut", "tilted-sphere", "z-turned-sphere",
        "off-axis-inversion", "two-spheres"])
def test_grids_without_the_turn_keep_the_mirror_route(make_grid, order,
                                                      monkeypatch):
    grid = make_grid()
    assert not grid.turn and grid.mirrors.shape[0] == order

    def refused(*args):
        raise AssertionError("mode route taken")

    monkeypatch.setattr(operators, "_mode_blocks", refused)
    blocks, mult = spectrum._operator_blocks(grid)
    assert np.array_equal(mult, np.ones(len(blocks)))
    assert np.array_equal(operators._row_nodes(grid),
                          operators._representatives(grid.mirrors))


def test_egg_keeps_the_turn_without_the_z_mirror():
    grid = build_grid(_egg(), 12, 24)
    assert grid.turn and grid.mirrors.shape[0] == 4

"""Rotation-mode block spectra against the mirror route.

On a grid with the turn (u, v) -> (u, v + 2 pi / n_v) and the y-mirror,
``compute_report``, ``symmetrized_spectrum`` and the study compute and
hold the meridian rows of the z-mirror's representatives alone, and split
K and S into one real block per rotation mode and parity of the z-mirror
(``operators._split_blocks``).  These tests compare every merged number
with the same grid with its turn stripped, which takes the mirror blocks,
compare the parity blocks with the mode blocks of the unblocked assembly
projected by the z-mirror found from the points, check that the held
meridian rows are those of the unblocked assembly and that the matrix
mirrors them by that z-mirror, fill the matrix and its dump, count the
near-field tasks, pin a grid without the z-mirror to the bits of the
unsplit modes, and check which grids keep the turn.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib

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
    # the z-mirror fixes the equator node
    "sphere-13x24": (sphere, (13, 24)),
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


def _meridian_z_mirror(grid):
    """The z-mirror of the meridian nodes, found from the points alone:
    p[a] = b when node (b, 0) is the reflection of node (a, 0) through
    the plane z = 0, or None if some reflection misses every node."""
    n_u, n_v = grid.resolution
    x = grid.points[::n_v]
    dist = np.linalg.norm(x[:, None, :] * [1.0, 1.0, -1.0] - x[None, :, :],
                          axis=-1)
    p = dist.argmin(axis=1)
    if dist[np.arange(n_u), p].max() > 1e-12 * np.abs(x).max():
        return None
    return p


def _parity_bases(p):
    """Orthonormal columns of the even and of the odd vectors of the
    involution p, one per orbit {a, p[a]} in the order of its smaller node
    a: e_a alone for a fixed node, else (e_a +- e_p[a]) / sqrt 2."""
    n = p.size
    even, odd = [], []
    for a in range(n):
        if a < p[a]:
            even.append(np.zeros(n))
            even[-1][[a, p[a]]] = 1.0 / np.sqrt(2.0)
            odd.append(np.zeros(n))
            odd[-1][[a, p[a]]] = np.array([1.0, -1.0]) / np.sqrt(2.0)
        elif a == p[a]:
            even.append(np.eye(n)[a])
    return [np.array(even).T, np.array(odd).T]


def test_grid_keeps_the_turn(case):
    grid, *_ = case
    n_u, n_v = grid.resolution
    assert grid.turn
    # one stack pair of the modes per parity of the z-mirror, if it is kept
    stacks, mult = spectrum._operator_blocks(grid)
    p = _meridian_z_mirror(grid)
    assert len(stacks) == (1 if p is None else 2)
    n_modes = n_v // 2 + 1
    sizes = [k.shape[1] for k, _ in stacks]
    for (k, s), m in zip(stacks, sizes):
        assert k.shape == s.shape == (n_modes, m, m)
    assert sum(sizes) == n_u
    # every node counted once over the blocks and their multiplicities
    assert np.dot(np.repeat(sizes, n_modes), mult) == grid.n_nodes
    for part in np.split(mult, len(stacks)):
        assert list(part[:2]) == [1, 2] and part[-1] == 2 - (n_v + 1) % 2


def test_parity_blocks_are_the_mode_blocks_projected(case):
    grid, *_ = case
    n_u, n_v = grid.resolution
    # the mode blocks of the unblocked assembly, from its meridian rows
    whole = dataclasses.replace(grid, mirrors=grid.mirrors[:1], turn=False)
    meridian = n_v * np.arange(n_u)
    sw = np.sqrt(grid.weights)
    p = _meridian_z_mirror(grid)
    bases = [np.eye(n_u)] if p is None else _parity_bases(p)
    stacks, _ = spectrum._operator_blocks(grid)
    assert len(stacks) == len(bases)
    for i, op in enumerate(assemble_operators(whole)):
        rows = op.rows[meridian] * sw[meridian, None] / sw[None, :]
        modes = np.moveaxis(np.fft.rfft(rows.reshape(n_u, n_u, n_v),
                                        axis=-1).real, -1, 0)
        for stack, basis in zip(stacks, bases):
            want = basis.T @ modes @ basis
            assert np.abs(stack[i] - want).max() \
                <= TOL * np.abs(modes).max()


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
    assert sym.rows.shape == (operators._row_nodes(grid).size, grid.n_nodes)
    assert np.array_equal(sym.matrix, sym.matrix.T)
    assert np.abs(np.sort(sla.eigvalsh(sym.matrix))
                  - _signed(report)).max() <= TOL


def test_meridian_rows_are_the_unblocked_rows(case):
    grid, *_ = case
    whole = dataclasses.replace(grid, mirrors=grid.mirrors[:1], turn=False)
    meridian = operators._row_nodes(grid)
    n_u, n_v = grid.resolution
    # the meridian nodes (a, 0) with a the smaller node of its orbit under
    # the z-mirror found from the points, or all of them without it
    p = _meridian_z_mirror(grid)
    p = np.arange(n_u) if p is None else p
    assert np.array_equal(meridian, n_v * np.flatnonzero(np.arange(n_u) <= p))
    for op, ref in zip(assemble_operators(grid), assemble_operators(whole)):
        assert op.rows.shape == (meridian.size, grid.n_nodes)
        assert np.abs(op.rows - ref.rows[meridian]).max() \
            <= TOL * np.abs(ref.rows[meridian]).max()
        # the other rows are mirrored and turned copies, equal to the
        # computed ones to rounding
        assert np.abs(op.matrix - ref.matrix).max() \
            <= TOL * np.abs(ref.matrix).max()


def test_mirrored_rows_are_held_rows_mirrored(case):
    # row (P c, 0) of the matrix is row (c, 0) with the z-mirror, found
    # from the points, applied to its columns, bit for bit for P c != c
    # and to rounding for a computed row that P fixes; a mirrored row of K
    # keeps K 1 = 1/2, its diagonal summed in another order
    grid, *_ = case
    n_u, n_v = grid.resolution
    p = _meridian_z_mirror(grid)
    if p is None:
        p = np.arange(n_u)
    mirror = (n_v * p[:, None] + np.arange(n_v)).ravel()
    k_op, s_op = assemble_operators(grid)
    for op in (k_op, s_op):
        scale = np.abs(op.matrix).max()
        for c in range(n_u):
            row, want = op.matrix[n_v * p[c]], op.matrix[n_v * c][mirror]
            if p[c] != c:
                assert np.array_equal(row, want), c
            assert np.abs(row - want).max() <= TOL * scale, c
    assert np.abs(k_op.matrix.sum(axis=1) - 0.5).max() <= 1e-15


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
    # the turn alone, and with the z-mirror P = (2, 1, 0): the rows (a, 0)
    # of the representatives a are held, and row (2, e) is row (0, 0) with
    # its u index reversed, turned by e
    n_u, n_v = 3, 5
    for table, p in (([[0, 1, 2]], [0, 1, 2]),
                     ([[0, 1, 2], [2, 1, 0]], [0, 1, 0])):
        table = np.array(table)
        reps = operators._representatives(table)
        rows = np.arange(reps.size * n_u * n_v, dtype=float).reshape(
            reps.size, n_u * n_v)
        sources = operators._orbit_sources(table)
        out = operators._fill_turns(rows, table, sources, n_v,
                                    np.empty((n_u * n_v, n_u * n_v)))
        for a in range(n_u):
            meridian = rows[p[a]].reshape(n_u, n_v)[table[-1] if a not in reps
                                                    else table[0]]
            for e in range(n_v):
                want = np.roll(meridian, e, axis=1).ravel()
                assert np.array_equal(out[a * n_v + e], want)
        # a call from another start writes the same rows
        part = operators._fill_turns(rows, table, sources, n_v,
                                     np.empty((4, n_u * n_v)), start=7)
        assert np.array_equal(part, out[7:11])
    # period 1: the order-8 group of the three mirrors of a 4 x 4 x 4 node
    # cube, every row the orbit gather rows[src[i]][perms[elem[i]]]
    idx = np.arange(64).reshape(4, 4, 4)
    perms = np.array([np.flip(idx, [ax for ax in range(3) if h >> ax & 1])
                      .ravel() for h in range(8)])
    reps = operators._representatives(perms)
    rows = np.arange(reps.size * 64, dtype=float).reshape(reps.size, 64)
    sources = operators._orbit_sources(perms)
    src, elem = sources
    out = operators._fill_turns(rows, perms, sources, 1, np.empty((64, 64)))
    for i in range(64):
        assert np.array_equal(out[i], rows[src[i]][perms[elem[i]]])
    assert np.array_equal(out[reps], rows)
    part = operators._fill_turns(rows, perms, sources, 1,
                                 np.empty((9, 64)), start=27)
    assert np.array_equal(part, out[27:36])


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
def test_grids_without_the_turn_keep_the_mirror_route(make_grid, order):
    # the turn of period 1: every mirror keeps the meridian, one mode, each
    # nonempty character a stack of one block of multiplicity 1
    grid = make_grid()
    assert not grid.turn and grid.mirrors.shape[0] == order
    perms, table, n_v = operators._row_mirrors(grid)
    assert n_v == 1 and perms is grid.mirrors and table is grid.mirrors
    reps, _, valid, _ = operators._orbits(grid.mirrors)
    assert np.array_equal(operators._row_nodes(grid), reps)
    blocks, mult = spectrum._operator_blocks(grid)
    sizes = [int(pick.sum()) for pick in valid if pick.any()]
    assert [k.shape for k, _ in blocks] == [(1, m, m) for m in sizes]
    assert [s.shape for _, s in blocks] == [(1, m, m) for m in sizes]
    assert np.array_equal(mult, np.ones(len(sizes)))
    assert operators._block_names(grid, blocks) == [
        f"mirror character {i}" for i in range(len(sizes))]


def test_egg_keeps_the_turn_without_the_z_mirror():
    grid = build_grid(_egg(), 12, 24)
    assert grid.turn and grid.mirrors.shape[0] == 4


def test_near_field_tasks_are_halved_by_the_z_mirror(monkeypatch):
    # the integrals over the meridian cells of the z-mirror's
    # representatives only, half of the 1354 and 2554 tasks that all the
    # meridian cells take
    tasks = []
    integrals = operators._cell_kernel_integrals

    def counted(grid, comp, src, tgt, q, nsub):
        tasks.append(src.size)
        return integrals(grid, comp, src, tgt, q, nsub)

    monkeypatch.setattr(operators, "_cell_kernel_integrals", counted)
    for make_surface, res, want in ((sphere, (24, 48), 677),
                                    (peanut, (32, 64), 1277)):
        tasks.clear()
        assemble_operators(build_grid(make_surface(), *res))
        assert sum(tasks) == want, res


def test_a_grid_without_the_z_mirror_keeps_the_bits():
    # the unsplit modes of the torus inverted about (0, 0, 3), which keeps
    # the turn but not the z-mirror: the assembled rows, the blocks, the
    # spectra, the symmetrized matrix and the diagnostics, pinned to the
    # bits of the unsplit mode route
    make_surface, res = CASES["inverted-torus-16x16"]
    grid = build_grid(make_surface(), *res)
    digest = hashlib.sha256()
    for op in assemble_operators(grid):
        digest.update(op.rows.tobytes())
    ((k, s),), _ = spectrum._operator_blocks(grid)
    eigs, svals, sym = spectrum.symmetrized_spectrum(grid)
    for a in (k, s, eigs, svals, sym.matrix):
        digest.update(a.tobytes())
    digest.update(repr(sorted(sym.diagnostics.items())).encode())
    assert digest.hexdigest()[:16] == "c4e6d64b43700898"


@pytest.mark.parametrize("res, count", [
    ((48, 96), 750), ((64, 128), 1177), ((96, 192), 2132)])
def test_peanut_counts_past_the_seed_study(res, count):
    grid = build_grid(peanut(1.0, 1.1), *res)
    assert spectrum._negative_count(grid, 1e-3) == count

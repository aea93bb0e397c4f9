"""Mirror-symmetry block spectra against the dense reference route.

``compute_report`` and the study split K and S into the character blocks
of the grid's mirror group; these tests compare every merged number with
the dense ``symmetrize`` + ``eigvalsh`` / ``svdvals`` route, and check the
grid-level mirror declarations and their failure modes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg as sla

from npspectra import (
    ConfigError,
    GridError,
    ParametricSurface,
    assemble_operators,
    build_grid,
    compute_report,
    concatenate_grids,
    ellipsoid,
    mobius_invert,
    parse_config,
    rigid_transform,
    sphere,
    spectrum,
    symmetrize,
    to_weighted_l2,
    torus,
)
from npspectra import operators, surfaces
from test_operators import _two_sphere_union

ELLIPSOID = {"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0}
# surface document, resolution, order of the mirror group
CASES = {
    "sphere-12x24": ({"name": "sphere"}, (12, 24), 8),
    "spheroid-12x24": ({"name": "spheroid", "a": 1.0, "c": 1.6}, (12, 24),
                       8),
    "ellipsoid-16x32": (ELLIPSOID, (16, 32), 8),
    "peanut-16x32": ({"name": "peanut"}, (16, 32), 8),
    "torus-16x16": ({"name": "torus"}, (16, 16), 8),
    # v -> pi - v misses the nodes at odd n_v: only y and z mirrors remain
    "ellipsoid-16x31": (ELLIPSOID, (16, 31), 4),
}


def _signed(report):
    return np.sort(np.concatenate([report.lambda_plus,
                                   -report.lambda_minus]))


def _dense(grid):
    k_op, s_op = assemble_operators(grid)
    kw, sw = to_weighted_l2(k_op), to_weighted_l2(s_op)
    sym = symmetrize(kw, sw)
    eigs = np.sort(sla.eigvalsh(sym.matrix))
    raw = np.sort(np.linalg.eigvals(k_op.matrix).real)
    sym.diagnostics["raw_eig_max_dev"] = float(np.max(np.abs(raw - eigs)))
    return eigs, np.sort(sla.svdvals(kw.matrix)), sym


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    surface, res, order = CASES[request.param]
    config = parse_config(json.dumps({"surface": surface,
                                      "resolution": list(res),
                                      "noise_cutoff": 1e-300}))
    grid = build_grid(config.surface, *res)
    eigs, svals, dense = _dense(grid)
    report, sym = compute_report(config)
    return grid, order, eigs, svals, dense, report, sym


def test_group_reflects_the_grid(case):
    grid, order, *_ = case
    assert grid.mirrors.shape == (order, grid.n_nodes)
    np.testing.assert_array_equal(grid.mirrors[0], np.arange(grid.n_nodes))
    for perm in grid.mirrors:
        np.testing.assert_array_equal(np.sort(perm), np.arange(grid.n_nodes))
        np.testing.assert_array_equal(perm[perm], np.arange(grid.n_nodes))
    assert len({perm.tobytes() for perm in grid.mirrors}) == order


def test_spectra_match_dense(case):
    _, _, eigs, svals, _, report, _ = case
    assert _signed(report).size == eigs.size
    assert np.abs(_signed(report) - eigs).max() <= 1e-12
    assert np.abs(np.sort(report.singular_values) - svals).max() <= 1e-12


def test_diagnostics_match_dense(case):
    *_, dense, report, _ = case
    diag, ref = report.diagnostics, dense.diagnostics
    assert abs(diag["min_eig_negS"] - ref["min_eig_negS"]) \
        <= 1e-12 * ref["min_eig_negS"]
    for key in ("plemelj_residual", "asymmetry_norm"):
        assert abs(diag[key] - ref[key]) <= 1e-2 * ref[key]
    # the raw crosscheck runs per block: same eigenvalues of K
    assert abs(diag["raw_eig_max_dev"] - ref["raw_eig_max_dev"]) <= 1e-10


def test_symmetrized_matrix_is_exactly_symmetric(case):
    grid, *_, report, sym = case
    assert sym.basis == "symmetrized" and sym.n == grid.n_nodes
    assert np.array_equal(sym.matrix, sym.matrix.T)
    assert np.abs(np.sort(sla.eigvalsh(sym.matrix))
                  - _signed(report)).max() <= 1e-12


def test_study_counts_match_eigvalsh(case):
    grid, _, eigs, *_ = case
    neg = eigs[eigs < 0]
    gaps = 0.5 * (neg[:-1] + neg[1:])[np.diff(neg) > 1e-9]
    for t in [1e-3, *(-gaps[::8])]:
        assert spectrum._negative_count(grid, t) == np.count_nonzero(
            eigs < -t), t


@pytest.mark.parametrize("make_grid", [
    lambda: build_grid(rigid_transform(
        ellipsoid(2.0, 1.2, 1.0),
        sla.expm(np.array([[0, -0.3, 0.5], [0.3, 0, -0.2], [-0.5, 0.2, 0]])),
        (0.4, -1.0, 2.0)), 16, 32),
    lambda: build_grid(mobius_invert(sphere(), (3.0, 0.5, 0.2)), 16, 32),
    _two_sphere_union,
], ids=["rotated-ellipsoid", "inverted-sphere", "two-spheres"])
def test_surfaces_without_mirrors_take_the_dense_route(make_grid):
    grid = make_grid()
    assert grid.mirrors.shape == (1, grid.n_nodes)
    eigs, svals, dense = _dense(grid)
    k_op, s_op = assemble_operators(grid)
    blocks = operators._mirror_blocks(grid, k_op.matrix, s_op.matrix)
    assert len(blocks) == 1 and blocks[0][0] is k_op.matrix
    sym, sym_blocks = operators._symmetrize_blocks(grid, blocks)
    assert sym_blocks[0] is sym.matrix
    assert np.abs(np.sort(sla.eigvalsh(sym.matrix)) - eigs).max() <= 1e-12
    assert np.abs(np.sort(sla.svdvals(blocks[0][0])) - svals).max() <= 1e-12
    assert np.abs(sym.matrix - dense.matrix).max() <= 1e-12
    for key in ("min_eig_negS", "plemelj_residual", "asymmetry_norm"):
        ref = dense.diagnostics[key]
        assert abs(sym.diagnostics[key] - ref) <= 1e-10 * ref
    assert spectrum._negative_count(grid, 1e-3) == np.count_nonzero(
        eigs < -1e-3)


def test_derived_surfaces_keep_or_drop_mirrors():
    base = ellipsoid(2.0, 1.2, 1.0)
    assert base.with_derivative_mode("finite_difference").mirrors \
        == base.mirrors == surfaces.POLAR_MIRRORS
    assert torus().mirrors == surfaces.TORUS_MIRRORS
    assert rigid_transform(base).mirrors == ()
    assert mobius_invert(sphere(), (3.0, 0.0, 0.0)).mirrors == ()
    fd = build_grid(base.with_derivative_mode("finite_difference"), 16, 32)
    assert fd.mirrors.shape == (8, fd.n_nodes)
    grid = build_grid(base, 12, 24)
    union = concatenate_grids([grid, build_grid(
        rigid_transform(base, None, (9.0, 0.0, 0.0)), 12, 24)])
    assert union.mirrors.shape == (1, union.n_nodes)


def test_repeated_mirror_axis_rejected():
    with pytest.raises(ConfigError, match="mirror axes"):
        ParametricSurface(sphere().position, kind="polar",
                          mirrors=[(2, surfaces.mirror_z_polar),
                                   (2, surfaces.mirror_z_polar)])


def _egg():
    """Egg-shaped body of revolution: not symmetric under z -> -z."""
    def fx(u, v):
        r = 1.0 + 0.2 * np.cos(u)
        su = np.sin(u)
        return np.stack([r * su * np.cos(v), r * su * np.sin(v),
                         r * np.cos(u)], axis=-1)

    return ParametricSurface(fx, kind="polar", name="egg",
                             mirrors=surfaces.POLAR_MIRRORS)


def test_misdeclared_mirror_raises_grid_error():
    n_u, n_v = 12, 24
    surf = _egg()
    # the worst node of the z-mirror, computed here from the chart
    grid = build_grid(ParametricSurface(surf.position, kind="polar"),
                      n_u, n_v)
    iu, iv = np.divmod(np.arange(n_u * n_v), n_v)
    perm = (n_u - 1 - iu) * n_v + iv
    x = grid.points
    defect = np.max(np.abs(x[perm] - x * [1.0, 1.0, -1.0]), axis=1)
    worst = int(np.argmax(defect))
    assert defect[worst] > 0.1
    with pytest.raises(GridError,
                       match=rf"mirror_z_polar .*worst node {worst},"):
        build_grid(surf, n_u, n_v)
    # declared without the z-mirror, its x and y mirrors pass the check
    flat = ParametricSurface(surf.position, kind="polar", name="egg",
                             mirrors=surfaces.POLAR_MIRRORS[:2])
    assert build_grid(flat, n_u, n_v).mirrors.shape[0] == 4

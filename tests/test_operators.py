"""Dense assembly of the layer operators, symmetrization, matrix dumps."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from npspectra import operators
from npspectra import (
    ConfigError,
    DegenerateChart,
    DiscreteOperator,
    GridError,
    NotPositiveDefinite,
    NumericalError,
    ParametricSurface,
    SingularInversion,
    assemble_operators,
    build_grid,
    concatenate_grids,
    dump_operator,
    ellipsoid,
    euler_characteristic,
    peanut,
    plemelj_residual,
    read_matrix_dump,
    rigid_transform,
    sphere,
    to_weighted_l2,
    torus,
)

from test_surfaces import _BROADCAST_CHARTS

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def sphere_ops(sphere_grid_small):
    k_op, s_op = assemble_operators(sphere_grid_small)
    return sphere_grid_small, k_op, s_op


def _symmetrize(kw, sw):
    """Plemelj symmetrization of the whole weighted pair, unblocked: one
    stack of one block."""
    ((eigs,),), ((svals,),), ((sym,),), norms = \
        operators._plemelj_symmetrize([(kw.matrix[None], sw.matrix[None])])
    return DiscreteOperator(sym, basis="symmetrized", grid=kw.grid,
                            diagnostics=operators._merge_diagnostics(
                                [norms], eigs[::-1], svals))


@pytest.fixture(scope="module")
def sphere_sym(sphere_ops):
    grid, k_op, s_op = sphere_ops
    kw = to_weighted_l2(k_op)
    sw = to_weighted_l2(s_op)
    return grid, kw, sw, _symmetrize(kw, sw)


def _one_point_operators(grid, s_corr):
    """K and S without the near-field correction, built independently.

    Every off-diagonal entry is the plain one-point product of kernel and
    source weight; the S diagonal is copied from the corrected ``s_corr``
    and the K diagonal follows from the row sum K 1 = 1/2.
    """
    x, nrm, w = grid.points, grid.normals, grid.weights
    diff = x[None, :, :] - x[:, None, :]          # x_j - x_i
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    np.fill_diagonal(r, np.inf)
    kmat = np.sum(diff * nrm[None, :, :], axis=-1) * w[None, :] \
        / (FOUR_PI * r ** 3)
    smat = -w[None, :] / (FOUR_PI * r)
    idx = np.arange(grid.n_nodes)
    smat[idx, idx] = s_corr.matrix[idx, idx]
    kmat[idx, idx] = 0.5 - kmat.sum(axis=1)
    return (DiscreteOperator(kmat, basis="nystrom", grid=grid),
            DiscreteOperator(smat, basis="nystrom", grid=grid))


def test_double_layer_constant_eigenpair(sphere_ops):
    grid, k_op, _ = sphere_ops
    ones = np.ones(grid.n_nodes)
    assert np.abs(k_op.matrix @ ones - 0.5).max() <= 1e-13


def test_double_layer_constant_eigenpair_torus(torus_grid_small):
    k_op = assemble_operators(torus_grid_small)[0]
    ones = np.ones(torus_grid_small.n_nodes)
    assert np.abs(k_op.matrix @ ones - 0.5).max() <= 1e-13


def test_single_layer_constant_on_unit_sphere(sphere_ops):
    # the continuum value is 1: the classic closed form
    # int dS(y) / (4 pi |x - y|) = 1 on the unit sphere
    grid, _, s_op = sphere_ops
    resid = np.abs(-s_op.matrix @ np.ones(grid.n_nodes) - 1.0).max()
    assert resid <= 1.2e-3


def test_single_layer_residual_decreases_under_refinement():
    fine = build_grid(sphere(), 32, 64)
    _, s_op = assemble_operators(fine)
    resid_fine = np.abs(-s_op.matrix @ np.ones(fine.n_nodes) - 1.0).max()
    coarse = build_grid(sphere(), 16, 32)
    _, s_c = assemble_operators(coarse)
    resid_coarse = np.abs(-s_c.matrix @ np.ones(coarse.n_nodes) - 1.0).max()
    # measured ratio 1.82: first-order scheme with a log factor
    assert resid_fine <= 6.5e-4
    assert resid_coarse / resid_fine >= 1.7


def test_near_correction_improves_constant_potential(sphere_grid_small):
    _, s_corr = assemble_operators(sphere_grid_small)
    _, s_raw = _one_point_operators(sphere_grid_small, s_corr)
    ones = np.ones(sphere_grid_small.n_nodes)
    err_corr = np.abs(-s_corr.matrix @ ones - 1.0).max()
    err_raw = np.abs(-s_raw.matrix @ ones - 1.0).max()
    assert err_raw >= 5.0 * err_corr


def test_operator_metadata(sphere_ops):
    _, k_op, s_op = sphere_ops
    assert k_op.basis == "nystrom"
    assert s_op.basis == "nystrom"


def test_weighted_single_layer_symmetric(sphere_sym):
    _, _, sw, _ = sphere_sym
    assert np.abs(sw.matrix - sw.matrix.T).max() <= 1e-14


def test_weighted_form_is_similarity(sphere_ops):
    _, k_op, _ = sphere_ops
    kw = to_weighted_l2(k_op)
    assert kw.basis == "weighted_l2"
    raw = np.sort(np.linalg.eigvals(k_op.matrix).real)[::-1]
    wtd = np.sort(np.linalg.eigvals(kw.matrix).real)[::-1]
    assert np.abs(raw[:20] - wtd[:20]).max() <= 1e-10


def test_to_weighted_l2_twice_rejected(sphere_ops):
    _, k_op, _ = sphere_ops
    with pytest.raises(ConfigError):
        to_weighted_l2(to_weighted_l2(k_op))


def test_negative_single_layer_positive_definite(sphere_sym):
    _, _, sw, sym = sphere_sym
    assert sla.eigvalsh(-sw.matrix)[0] > 1e-3
    assert sym.diagnostics["min_eig_negS"] > 1e-3


def test_symmetrized_diagnostics(sphere_sym):
    _, _, _, sym = sphere_sym
    assert np.abs(sym.matrix - sym.matrix.T).max() == 0.0
    assert sym.diagnostics["asymmetry_norm"] <= 2e-3
    assert sym.diagnostics["plemelj_residual"] <= 5e-4


def test_symmetrization_near_no_op_on_sphere(sphere_sym):
    # continuum K and S commute on the sphere, so symmetrization should
    # move the eigenvalues only at the level of the near-field correction
    # asymmetry, not more
    _, kw, _, sym = sphere_sym
    raw = np.sort(np.linalg.eigvals(kw.matrix).real)
    symmetric = np.sort(sla.eigvalsh(sym.matrix))
    assert np.abs(raw - symmetric).max() <= 1e-4


def test_spectrum_structure_small_sphere(sphere_sym):
    _, _, _, sym = sphere_sym
    eigs = np.sort(sla.eigvalsh(sym.matrix))[::-1]
    assert abs(eigs[0] - 0.5) <= 1e-5
    assert np.abs(eigs[1:4] - 1.0 / 6.0).max() <= 1e-3
    assert np.abs(eigs[4:9] - 0.1).max() <= 1e-3
    assert eigs.min() > -1e-3
    assert eigs.max() <= 0.5 + 1e-6
    assert eigs.min() > -0.5 - 5e-2


def test_moduli_match_singular_values(sphere_sym):
    _, _, _, sym = sphere_sym
    moduli = np.sort(np.abs(sla.eigvalsh(sym.matrix)))[::-1]
    mu = sla.svdvals(sym.matrix)
    assert np.abs(moduli - mu).max() <= 1e-10


def test_plemelj_residual_levels_and_decrease(sphere_sym):
    _, kw, sw, _ = sphere_sym
    coarse = plemelj_residual(kw, sw)
    assert coarse <= 5e-4
    fine_grid = build_grid(sphere(), 32, 64)
    k2, s2 = assemble_operators(fine_grid)
    fine = plemelj_residual(to_weighted_l2(k2), to_weighted_l2(s2))
    assert fine <= 0.7 * coarse


def test_plemelj_requires_weighted_basis(sphere_ops):
    _, k_op, s_op = sphere_ops
    with pytest.raises(ConfigError):
        plemelj_residual(k_op, s_op)


def test_plemelj_requires_same_grid(sphere_sym, torus_grid_small):
    _, kw, _, _ = sphere_sym
    k2, s2 = assemble_operators(torus_grid_small)
    with pytest.raises(ConfigError):
        plemelj_residual(kw, to_weighted_l2(s2))


def test_symmetrize_rejects_indefinite_single_layer(sphere_sym):
    grid, kw, sw, _ = sphere_sym
    flipped = DiscreteOperator(-sw.matrix, basis="weighted_l2", grid=grid)
    with pytest.raises(NotPositiveDefinite):
        _symmetrize(kw, flipped)


def test_uncorrected_sphere_scheme_is_symmetric_but_indefinite():
    grid = build_grid(sphere(), 16, 32)
    k_op, s_op = _one_point_operators(grid, assemble_operators(grid)[1])
    kw, sw = to_weighted_l2(k_op), to_weighted_l2(s_op)
    # the raw punctured kernel is symmetric on the sphere
    assert np.abs(kw.matrix - kw.matrix.T).max() <= 1e-14
    # but -S loses positivity, which is why the correction is the default
    with pytest.raises(NotPositiveDefinite):
        _symmetrize(kw, sw)


def test_two_disjoint_spheres():
    far = rigid_transform(sphere(), None, (6.0, 0.0, 0.0))
    union = concatenate_grids([build_grid(sphere(), 12, 24),
                               build_grid(far, 12, 24)])
    assert abs(euler_characteristic(union) - 4.0) <= 1e-8
    k_op, s_op = assemble_operators(union)
    n1 = union.components[0].stop
    ones = np.ones(union.n_nodes)
    assert np.abs(k_op.matrix @ ones - 0.5).max() <= 1e-13
    # cross-component kernel blocks are smooth and bounded by the
    # separation: |K_ij| <= w_max / (4 pi d^2) with d >= 4
    cross = np.abs(k_op.matrix[:n1, n1:])
    bound = union.weights.max() / (4.0 * np.pi * 4.0 ** 2)
    assert cross.max() <= bound
    sym = _symmetrize(to_weighted_l2(k_op), to_weighted_l2(s_op))
    eigs = np.sort(sla.eigvalsh(sym.matrix))[::-1]
    # constants on each component: a double eigenvalue at 1/2
    assert np.abs(eigs[:2] - 0.5).max() <= 1e-6
    # the k = 1 sphere clusters split by the dipole coupling (r/d)^3
    assert np.abs(eigs[2:8] - 1.0 / 6.0).max() <= 5e-3


def test_close_components_rejected():
    near = rigid_transform(sphere(), None, (2.02, 0.0, 0.0))
    union = concatenate_grids([build_grid(sphere(), 12, 24),
                               build_grid(near, 12, 24)])
    with pytest.raises(GridError):
        assemble_operators(union)


def test_dump_round_trip(tmp_path, sphere_sym):
    _, kw, _, sym = sphere_sym
    for op, basis in ((kw, "weighted_l2"), (sym, "symmetrized")):
        path = tmp_path / f"{basis}.bin"
        dump_operator(op, path)
        blob = path.read_bytes()
        assert blob[:4] == b"NPOP"
        assert len(blob) == 32 + 8 * op.matrix.size
        matrix, tag = read_matrix_dump(path)
        assert tag == basis
        assert np.array_equal(matrix, op.matrix)


def test_dump_rejects_corrupt_header(tmp_path, sphere_sym):
    _, kw, _, _ = sphere_sym
    path = tmp_path / "op.bin"
    dump_operator(kw, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ConfigError):
        read_matrix_dump(bad)
    truncated = tmp_path / "short.bin"
    truncated.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ConfigError):
        read_matrix_dump(truncated)


def test_dump_rejects_unknown_basis_tag(tmp_path, sphere_sym):
    _, kw, _, _ = sphere_sym
    path = tmp_path / "op.bin"
    dump_operator(kw, path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="basis tag 99"):
        read_matrix_dump(path)


def _with_nan(func):
    """``func`` with its first result's first entry replaced by NaN."""
    def broken(*args, **kwargs):
        out = func(*args, **kwargs)
        first = out[0] if isinstance(out, tuple) else out
        first[0] = np.nan
        return out
    return broken


@pytest.mark.parametrize("stage", ["_cell_kernel_integrals",
                                   "_self_cell_single_layer"])
def test_non_finite_entries_are_a_numerical_error(monkeypatch, stage):
    grid = build_grid(sphere(), 8, 16)
    monkeypatch.setattr(operators, stage,
                        _with_nan(getattr(operators, stage)))
    with pytest.raises(NumericalError, match="single-layer entry .* is nan"):
        assemble_operators(grid)


def test_self_cell_rule_reads_its_order_at_call_time(monkeypatch):
    grid = build_grid(sphere(), 8, 16)
    rows = np.arange(len(grid.points))
    coarse = operators._self_cell_single_layer(grid, rows)
    monkeypatch.setattr(operators, "SELF_QUAD", 16)
    fine = operators._self_cell_single_layer(grid, rows)
    # 8 and 16 points differ by 6.4e-4 relative on this grid
    assert not np.array_equal(fine, coarse)
    np.testing.assert_allclose(fine, coarse, rtol=1e-3)


def test_gauss_legendre_rules_are_leggauss_cached(monkeypatch):
    for q in (1, 6, 8, 16, 24):
        nodes, weights = operators._gauss_legendre(q)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(q)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        # one shared pair per order, which no caller can change
        assert operators._gauss_legendre(q)[0] is nodes
        assert not (nodes.flags.writeable or weights.flags.writeable)
    # the cache is keyed on the order, which the self-cell rule still
    # reads from SELF_QUAD at call time
    grid = build_grid(sphere(), 8, 16)
    rule, orders = operators._gauss_legendre, []
    monkeypatch.setattr(operators, "_gauss_legendre",
                        lambda q: orders.append(q) or rule(q))
    monkeypatch.setattr(operators, "SELF_QUAD", 16)
    operators._self_cell_single_layer(grid, np.arange(grid.n_nodes))
    assert orders == [16]


def test_coincident_nodes_rejected():
    grid = build_grid(sphere(), 8, 16)
    with pytest.raises(GridError, match="coincident quadrature nodes"):
        assemble_operators(concatenate_grids([grid, grid]))


def _per_pair_panels(grid, comp, src, tgt, q, nsub):
    """Chart samples on each panel of tgt's cell, evaluated afresh per pair.

    Yields (diff, cr, jac, ww) per panel: y - x_src, cross(y_u, y_v), its
    norm and the tensor weights, one chart evaluation per (pair, panel).
    """
    surf = comp.surface
    gx, gw = np.polynomial.legendre.leggauss(q)
    t0, t1 = grid.cell_u_lo[tgt], grid.cell_u_hi[tgt]
    p0 = grid.v[tgt] - 0.5 * grid.cell_dv[tgt]
    dv = grid.cell_dv[tgt]
    x_src = grid.points[src]
    n_pairs = len(src)
    for a in range(nsub):
        tt0 = t0 + (t1 - t0) * a / nsub
        tt1 = t0 + (t1 - t0) * (a + 1) / nsub
        uq = 0.5 * (tt1 - tt0)[:, None] * gx[None, :] \
            + 0.5 * (tt1 + tt0)[:, None]
        wu = 0.5 * (tt1 - tt0)[:, None] * gw[None, :]
        for b in range(nsub):
            pp0 = p0 + dv * b / nsub
            vq = pp0[:, None] + (dv / nsub)[:, None] * 0.5 * (gx[None, :] + 1)
            wv = (dv / nsub)[:, None] * 0.5 * gw[None, :]
            uu = np.broadcast_to(uq[:, :, None], (n_pairs, q, q))
            vv = np.broadcast_to(vq[:, None, :], (n_pairs, q, q))
            y = surf.position(uu, vv)
            yu, yv = surf.first_derivatives(uu, vv)
            cr = np.cross(yu, yv)
            jac = np.sqrt(np.sum(cr * cr, axis=-1))
            ww = wu[:, :, None] * wv[:, None, :]
            yield y - x_src[:, None, None, :], cr, jac, ww


def _per_pair_cell_integrals(grid, comp, src, tgt, q, nsub):
    """Near-pair cell integrals evaluating the chart afresh for every pair.

    The reference for the per-cell geometry cache: the same quadrature with
    the same expressions, one chart evaluation per (pair, panel).  Like the
    assembly, it works on contiguous (pairs, q^2) coordinate planes: d_k,
    r^2 = d_0^2 + d_1^2 + d_2^2 and the numerator sum_k d_k crw_k by
    elementwise products, ``einsum`` only for the sums over the samples.
    """
    sign = comp.surface.orientation_sign()
    i_s = np.zeros(len(src))
    i_k = np.zeros(len(src))
    for diff, cr, jac, ww in _per_pair_panels(grid, comp, src, tgt, q, nsub):
        jw = (jac * ww / FOUR_PI).reshape(len(src), q * q)
        crw = cr * (sign * ww / FOUR_PI)[..., None]
        d0, d1, d2 = (np.ascontiguousarray(diff[..., k]).reshape(len(src), -1)
                      for k in range(3))
        c0, c1, c2 = (np.ascontiguousarray(crw[..., k]).reshape(len(src), -1)
                      for k in range(3))
        inv = 1.0 / np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        i_s += np.einsum("pi,pi->p", jw, inv)
        num = d0 * c0 + d1 * c1 + d2 * c2
        i_k += np.einsum("pi,pi->p", num, inv ** 3)
    return i_s, i_k


def _direct_cell_integrals(grid, comp, src, tgt, q, nsub):
    """Near-pair cell integrals written term by term from the kernels.

    An independent reference: jac / (4 pi |y - x|) and the unit normal's
    <y - x, n> / (4 pi |y - x|^3) times jac, each times the weights.
    """
    sign = comp.surface.orientation_sign()
    i_s = np.zeros(len(src))
    i_k = np.zeros(len(src))
    for diff, cr, jac, ww in _per_pair_panels(grid, comp, src, tgt, q, nsub):
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        i_s += np.sum(jac / (FOUR_PI * dist) * ww, axis=(1, 2))
        num = sign * np.sum(diff * cr, axis=-1) / jac
        i_k += np.sum(num * jac / (FOUR_PI * dist ** 3) * ww, axis=(1, 2))
    return i_s, i_k


def _sample_pairs(grid, comp, touching, count=5):
    """A few (i < j) near pairs of one component, touching or not."""
    sl = comp.slice
    x = grid.points[sl]
    rr = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    hu = (grid.cell_u_hi - grid.cell_u_lo)[sl] * np.sqrt(grid.frames.E[sl])
    hv = grid.cell_dv[sl] * np.sqrt(grid.frames.G[sl])
    diam = np.hypot(hu, hv)
    half = 0.5 * (diam[:, None] + diam[None, :])
    near = rr < operators.NEAR_RADIUS_CELLS * half
    touch = rr < operators.TOUCH_RADIUS_CELLS * half
    mask = np.triu(touch if touching else near & ~touch, k=1)
    ii, jj = np.nonzero(mask)
    assert ii.size >= count
    pick = np.linspace(0, ii.size - 1, count).astype(int)
    return ii[pick] + comp.start, jj[pick] + comp.start


def _union_with_offset_peanut():
    # the sphere's cells differ from the peanut's, so a cell looked up
    # without the component offset gives wrong parameters
    moved = rigid_transform(peanut(), None, (6.0, 0.0, 0.0))
    return concatenate_grids([build_grid(sphere(), 10, 20),
                              build_grid(moved, 12, 24)])


@pytest.mark.parametrize("make_grid, comp_index", [
    (lambda: build_grid(peanut(), 12, 24), 0),
    # the finite-difference ellipsoid of test_mirror_blocks.CASES
    (lambda: build_grid(ellipsoid(2.0, 1.2, 1.0).with_derivative_mode(
        "finite_difference"), 16, 32), 0),
    (_union_with_offset_peanut, 1),
], ids=["peanut", "fd-ellipsoid", "offset-peanut"])
@pytest.mark.parametrize("a, b", [(0, 0), (2, 1)])
def test_panel_geometry_on_cells_matches_the_component(make_grid, comp_index,
                                                       a, b):
    grid = make_grid()
    comp = grid.components[comp_index]
    gx, gw = np.polynomial.legendre.leggauss(operators.CELL_QUAD)
    n_cells = comp.stop - comp.start
    nsub = operators.CELL_SUBDIV
    whole = operators._panel_geometry(grid, comp, np.arange(n_cells), gx, gw,
                                      a, b, nsub)
    cells = np.random.default_rng(0).permutation(n_cells)[:n_cells // 3]
    some = operators._panel_geometry(grid, comp, cells, gx, gw, a, b, nsub)
    for part, full in zip(some, whole):
        assert np.array_equal(part, full[cells])


def _broadcast_panel_geometry(grid, comp, cells, gx, gw, a, b, nsub):
    """``_panel_geometry`` with the chart on full (cells, q, q) arrays.

    The oracle for the tensor axes: the panel nodes are broadcast to the
    whole panel before the chart sees them, so every term is evaluated on
    every sample.
    """
    nodes = comp.start + cells
    q = gx.size
    t0, t1 = grid.cell_u_lo[nodes], grid.cell_u_hi[nodes]
    dv = grid.cell_dv[nodes]
    p0 = grid.v[nodes] - 0.5 * dv
    tt0 = t0 + (t1 - t0) * a / nsub
    tt1 = t0 + (t1 - t0) * (a + 1) / nsub
    uq = 0.5 * (tt1 - tt0)[:, None] * gx[None, :] \
        + 0.5 * (tt1 + tt0)[:, None]
    wu = 0.5 * (tt1 - tt0)[:, None] * gw[None, :]
    pp0 = p0 + dv * b / nsub
    vq = pp0[:, None] + (dv / nsub)[:, None] * 0.5 * (gx[None, :] + 1)
    wv = (dv / nsub)[:, None] * 0.5 * gw[None, :]
    uu = np.broadcast_to(uq[:, :, None], (cells.size, q, q))
    vv = np.broadcast_to(vq[:, None, :], (cells.size, q, q))
    surf = comp.surface
    y = surf.position(uu, vv)
    yu, yv = surf.first_derivatives(uu, vv)
    cr = np.cross(yu, yv)
    jac = np.sqrt(np.sum(cr * cr, axis=-1))
    ww = wu[:, :, None] * wv[:, None, :]
    return y, cr, jac, ww


@pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
@pytest.mark.parametrize("name", list(_BROADCAST_CHARTS))
@pytest.mark.parametrize("a, b", [(0, 0), (2, 1)])
def test_panel_geometry_on_tensor_axes_is_bit_identical(name, mode, a, b):
    surf = _BROADCAST_CHARTS[name].with_derivative_mode(mode)
    grid = build_grid(surf, 8, 16)
    comp = grid.components[0]
    gx, gw = np.polynomial.legendre.leggauss(operators.CELL_QUAD)
    cells = np.arange(grid.n_nodes)
    got = operators._panel_geometry(grid, comp, cells, gx, gw, a, b,
                                    operators.CELL_SUBDIV)
    ref = _broadcast_panel_geometry(grid, comp, cells, gx, gw, a, b,
                                    operators.CELL_SUBDIV)
    for part, full in zip(got, ref):
        assert part.shape == full.shape
        assert np.array_equal(part, full)


def _egg_stacked():
    """An egg-shaped chart that stacks coordinates of unequal shapes.

    Its z coordinate depends on u alone, so on tensor axes np.stack meets
    a (n_u, 1) array beside (n_u, n_v) ones and raises numpy's ValueError;
    on 1-d node arrays it works.
    """
    def fx(u, v):
        r = 1.0 + 0.2 * np.cos(u)
        su = np.sin(u)
        return np.stack([r * su * np.cos(v), r * su * np.sin(v),
                         r * np.cos(u)], axis=-1)

    return ParametricSurface(fx, kind="polar", name="egg")


def test_chart_that_does_not_broadcast_is_a_config_error():
    # build_grid probes the contract before it evaluates any frame
    with pytest.raises(ConfigError, match=r"chart of surface 'egg' raised "
                                          r"all input arrays must have the "
                                          r"same shape .* broadcast shape"):
        build_grid(_egg_stacked(), 12, 24)


def test_chart_of_the_wrong_shape_is_a_config_error():
    # a chart that flattens its points works on 1-d nodes only
    flat = ParametricSurface(
        lambda u, v: sphere().position(u, v).reshape(-1, 3), kind="polar",
        name="flat")
    with pytest.raises(ConfigError, match=r"'flat' returned shape \(4, 3\) "
                                          r"on u of shape \(2, 1\) and v of "
                                          r"shape \(1, 2\); .* here "
                                          r"\(2, 2, 3\)"):
        build_grid(flat, 8, 16)


def test_chart_that_breaks_on_rank_3_is_a_config_error_of_assembly():
    # the grid's probe runs on rank 2; the panels of assembly are rank 3
    base = sphere()

    def fx(u, v):
        x = base.position(u, v)
        return x.reshape(-1, 3) if np.ndim(u) == 3 else x

    grid = build_grid(ParametricSurface(fx, base._d1, base._d2, kind="polar",
                                        name="flat3"), 8, 16)
    with pytest.raises(ConfigError, match=r"'flat3' returned shape "
                                          r"\(\d+, 3\) on u of shape .* "
                                          r"here \(\d+, 6, 6, 3\)"):
        assemble_operators(grid)


@pytest.mark.parametrize("error", [DegenerateChart, SingularInversion,
                                   ConfigError])
def test_chart_errors_of_the_package_pass_through(error):
    base = sphere()

    def fx(u, v):
        if np.ndim(u) == 3:
            raise error("raised by the chart")
        return base.position(u, v)

    grid = build_grid(ParametricSurface(fx, base._d1, base._d2, kind="polar",
                                        name="raising"), 8, 16)
    with pytest.raises(error) as err:
        assemble_operators(grid)
    assert type(err.value) is error
    assert str(err.value) == "raised by the chart"


_NEAR_GRIDS = [
    (lambda: build_grid(peanut(), 12, 24), 0),
    (lambda: build_grid(torus(), 16, 16), 0),
    (_union_with_offset_peanut, 1),
]


@pytest.mark.parametrize("make_grid, comp_index", _NEAR_GRIDS)
@pytest.mark.parametrize("touching", [False, True])
def test_near_entries_match_per_pair_chart_integrals(make_grid, comp_index,
                                                      touching):
    # without its mirrors and turn the grid assembles every row directly;
    # with them the rows of other nodes are permuted copies, equal to these
    # integrals only to rounding
    grid = make_grid()
    grid = dataclasses.replace(grid, mirrors=grid.mirrors[:1], turn=False)
    comp = grid.components[comp_index]
    ii, jj = _sample_pairs(grid, comp, touching)
    nsub = operators.CELL_SUBDIV if touching else 1
    q = operators.CELL_QUAD
    is_ab, ik_ab = _per_pair_cell_integrals(grid, comp, ii, jj, q, nsub)
    is_ba, ik_ba = _per_pair_cell_integrals(grid, comp, jj, ii, q, nsub)
    k_op, s_op = assemble_operators(grid)
    w = grid.weights
    assert np.array_equal(k_op.matrix[ii, jj], ik_ab)
    assert np.array_equal(k_op.matrix[jj, ii], ik_ba)
    assert np.array_equal(s_op.matrix[ii, jj],
                          -0.5 * (is_ab + is_ba * (w[jj] / w[ii])))
    assert np.array_equal(s_op.matrix[jj, ii],
                          -0.5 * (is_ba + is_ab * (w[ii] / w[jj])))


@pytest.mark.parametrize("make_grid, comp_index", _NEAR_GRIDS)
@pytest.mark.parametrize("touching", [False, True])
def test_near_integrals_match_the_direct_formula(make_grid, comp_index,
                                                 touching):
    grid = make_grid()
    comp = grid.components[comp_index]
    ii, jj = _sample_pairs(grid, comp, touching)
    nsub = operators.CELL_SUBDIV if touching else 1
    q = operators.CELL_QUAD
    src, tgt = np.concatenate([ii, jj]), np.concatenate([jj, ii])
    got = operators._cell_kernel_integrals(grid, comp, src, tgt, q, nsub)
    ref = _direct_cell_integrals(grid, comp, src, tgt, q, nsub)
    for a, b in zip(got, ref):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def _stripped(grid):
    """``grid`` without its mirrors and turn: every row is assembled."""
    return dataclasses.replace(grid, mirrors=grid.mirrors[:1], turn=False)


def _recorded_assembly(grid, monkeypatch):
    """Assemble ``grid``, recording the cells the chart is sampled on
    (``_panel_geometry``) and the (tgt, src) pairs that
    ``_cell_kernel_integrals`` integrates."""
    cells, pairs = [], []
    panel = operators._panel_geometry
    integrals = operators._cell_kernel_integrals

    def recording_panel(grid, comp, comp_cells, *args):
        cells.append(comp.start + comp_cells)
        return panel(grid, comp, comp_cells, *args)

    def recording_integrals(grid, comp, src, tgt, q, nsub):
        pairs.append(np.stack([tgt, src], axis=1))
        return integrals(grid, comp, src, tgt, q, nsub)

    monkeypatch.setattr(operators, "_panel_geometry", recording_panel)
    monkeypatch.setattr(operators, "_cell_kernel_integrals",
                        recording_integrals)
    ops = assemble_operators(grid)
    return ops, np.concatenate(cells), np.concatenate(pairs)


@pytest.mark.parametrize("make_grid, kind", [
    (lambda: build_grid(peanut(), 16, 32), "turn"),
    (lambda: build_grid(ellipsoid(2.0, 1.2, 1.0), 16, 32), "mirrors"),
    (lambda: _stripped(build_grid(peanut(), 12, 24)), "none"),
], ids=["peanut", "ellipsoid", "stripped-peanut"])
def test_near_field_integrates_each_row_cell_task_once(make_grid, kind,
                                                        monkeypatch):
    grid = make_grid()
    assert kind == ("turn" if grid.turn else "mirrors"
                    if grid.mirrors.shape[0] > 1 else "none")
    _, cells, pairs = _recorded_assembly(grid, monkeypatch)
    # the chart is sampled on the cells of the row nodes alone
    assert np.isin(cells, operators._row_nodes(grid)).all()
    assert np.isin(pairs[:, 0], operators._row_nodes(grid)).all()
    # and no (cell, source) integral is taken twice
    assert np.unique(pairs, axis=0).shape == pairs.shape


@pytest.mark.parametrize("make_grid", [
    lambda: build_grid(peanut(), 12, 24),
    _union_with_offset_peanut,
], ids=["peanut", "offset-peanut"])
def test_rows_without_symmetry_are_those_assembled_pair_by_pair(make_grid,
                                                                monkeypatch):
    grid = _stripped(make_grid())
    ops = assemble_operators(grid)
    # every task integrated with a chart evaluation of its own
    monkeypatch.setattr(operators, "_cell_kernel_integrals",
                        _per_pair_cell_integrals)
    for op, ref in zip(ops, assemble_operators(grid)):
        assert np.array_equal(op.rows, ref.rows)


def test_row_blocks_do_not_change_the_operators(monkeypatch):
    grid = build_grid(peanut(), 12, 24)
    k_ref, s_ref = assemble_operators(grid)
    n = grid.n_nodes
    # 5 rows per block, which does not divide n, and 40-pair chunks
    monkeypatch.setattr(operators, "_BLOCK_ENTRIES", 5 * n + 7)
    assert operators._block_rows(n) == 5 and n % 5
    k_op, s_op = assemble_operators(grid)
    assert np.array_equal(k_op.matrix, k_ref.matrix)
    assert np.array_equal(s_op.matrix, s_ref.matrix)


def _eigh_symmetrization(kw, sw):
    """Square-root symmetrization, built independently of ``_symmetrize``.

    Eigendecomposes -S = Q Lambda Q^T, forms P = Q Lambda^(1/2) Q^T and
    P^{-1}, and returns min eig(-S), sym(P^{-1} K P) and the norm of the
    discarded skew part relative to that of sym(P^{-1} K P).
    """
    lam, q = sla.eigh(-sw.matrix)
    root = np.sqrt(lam)
    kt = (q / root) @ q.T @ kw.matrix @ (q * root) @ q.T
    asym = sla.svdvals(kt - kt.T)[0] / sla.svdvals(kt + kt.T)[0]
    return float(lam[0]), 0.5 * (kt + kt.T), asym


def _two_sphere_union():
    far = rigid_transform(sphere(), None, (6.0, 0.0, 0.0))
    return concatenate_grids([build_grid(sphere(), 12, 24),
                              build_grid(far, 12, 24)])


@pytest.mark.parametrize("make_grid", [
    lambda: build_grid(sphere(), 12, 24),
    lambda: build_grid(torus(), 16, 16),
    lambda: build_grid(peanut(), 16, 32),
    _two_sphere_union,
], ids=["sphere", "torus", "peanut", "two-spheres"])
def test_cholesky_symmetrization_matches_square_root(make_grid):
    k_op, s_op = assemble_operators(make_grid())
    kw, sw = to_weighted_l2(k_op), to_weighted_l2(s_op)
    sym = _symmetrize(kw, sw)
    min_eig, ref_matrix, ref_asym = _eigh_symmetrization(kw, sw)
    # L^-1 K L is orthogonally similar to P^-1 K P (L = P U, U orthogonal)
    eigs = np.sort(sla.eigvalsh(sym.matrix))
    ref_eigs = np.sort(sla.eigvalsh(ref_matrix))
    assert np.abs(eigs - ref_eigs).max() <= 1e-12
    diag = sym.diagnostics
    assert abs(diag["min_eig_negS"] - min_eig) <= 1e-12 * min_eig
    k, s = kw.matrix, sw.matrix
    resid = sla.svdvals(s @ k.T - k @ s)[0] \
        / (sla.svdvals(k)[0] * sla.svdvals(s)[0])
    assert abs(diag["plemelj_residual"] - resid) <= 1e-10 * resid
    assert abs(diag["asymmetry_norm"] - ref_asym) <= 1e-10 * ref_asym


def test_spectral_norm_is_exact():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((100, 100))
    cases = {
        "1x1": np.array([[-2.5]]),
        "zero": np.zeros((6, 6)),
        "skew-2x2": np.array([[0.0, 3.0], [-3.0, 0.0]]),
        # singular values in pairs, so the largest one is double
        "skew-100": a - a.T,
        "rank-1": np.outer(rng.standard_normal(30), rng.standard_normal(30)),
    }
    for name, m in cases.items():
        want = sla.svdvals(m)[0]
        got = operators._spectral_norm([m])
        assert abs(got - want) <= 1e-13 * want, name


def _skew(n, top, seed):
    """A skew n x n matrix whose largest singular value ``top`` is double."""
    a = np.random.default_rng(seed).standard_normal((n, n))
    a -= a.T
    return a * (top / sla.svdvals(a)[0])


_ZERO = np.zeros((6, 6))


@pytest.mark.parametrize("blocks", [
    # the largest norm in the first, a middle and the last block
    [_skew(40, 3.0, 1), _ZERO, np.array([[1.5]]), _skew(12, 2.0, 2)],
    [_skew(7, 1.0, 3), _skew(30, 4.0, 4), np.array([[-2.0]]), _ZERO,
     _skew(5, 0.5, 5)],
    [_ZERO, np.array([[0.25]]), _skew(9, 1.0, 6), _skew(2, 0.75, 7),
     _skew(64, 5.0, 8)],
    # in a 1 x 1 block
    [_skew(20, 1.0, 9), np.array([[-6.0]]), _skew(3, 2.0, 10)],
], ids=["first", "middle", "last", "one-by-one"])
def test_spectral_norm_of_a_block_diagonal_is_its_largest_block_norm(
        blocks):
    want = sla.svdvals(sla.block_diag(*blocks))[0]
    assert want == pytest.approx(max(sla.svdvals(b)[0] for b in blocks),
                                 rel=1e-13)
    assert abs(operators._spectral_norm(blocks) - want) <= 1e-13 * want


def test_spectral_norm_of_zero_blocks_is_zero():
    assert operators._spectral_norm([np.zeros((3, 3)), np.zeros((1, 1))]) \
        == 0.0


def test_failed_cholesky_is_not_positive_definite(sphere_sym, monkeypatch):
    _, kw, sw, _ = sphere_sym
    assert sla.eigvalsh(-sw.matrix)[0] > 0.0

    def failing_factor(a, *args, **kwargs):
        # LAPACK's info > 0: a leading minor is not positive definite
        return a, 3

    monkeypatch.setattr(operators, "dpotrf", failing_factor)
    with pytest.raises(NotPositiveDefinite,
                       match="Cholesky factorization of -S failed"):
        _symmetrize(kw, sw)


def test_failed_dump_keeps_old_file(tmp_path, sphere_sym, short_writes):
    _, kw, _, sym = sphere_sym
    path = tmp_path / "op.bin"
    dump_operator(kw, path)
    before = path.read_bytes()
    with short_writes(), pytest.raises(OSError, match="No space"):
        dump_operator(sym, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["op.bin"]
    matrix, basis = read_matrix_dump(path)
    assert basis == "weighted_l2" and np.array_equal(matrix, kw.matrix)


def test_dump_failing_mid_stream_keeps_old_file(tmp_path, sphere_ops,
                                                short_writes, monkeypatch):
    grid, k_op, s_op = sphere_ops
    # 100 rows per chunk: the 512 rows take six data writes
    monkeypatch.setattr(operators, "_DUMP_ENTRIES", 100 * grid.n_nodes)
    path = tmp_path / "op.bin"
    dump_operator(s_op, path)
    before = path.read_bytes()
    with short_writes(fail_on=3) as sizes, \
            pytest.raises(OSError, match="No space"):
        dump_operator(k_op, path)
    # the header and one whole chunk went out before the failing write
    assert sizes == [32, 800 * grid.n_nodes, 800 * grid.n_nodes]
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["op.bin"]
    matrix, basis = read_matrix_dump(path)
    assert basis == "nystrom" and np.array_equal(matrix, s_op.matrix)


def test_dump_rejects_short_header_and_wrong_size(tmp_path, sphere_sym):
    _, kw, _, _ = sphere_sym
    path = tmp_path / "op.bin"
    dump_operator(kw, path)
    blob = path.read_bytes()
    stub = tmp_path / "stub.bin"
    stub.write_bytes(blob[:4])
    with pytest.raises(ConfigError, match="header"):
        read_matrix_dump(stub)
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(blob + b"\0" * 8)
    with pytest.raises(ConfigError, match="bytes"):
        read_matrix_dump(trailing)
    # a corrupt node count is caught by the size check, before any read
    huge = tmp_path / "huge.bin"
    huge.write_bytes(blob[:12] + (2 ** 40).to_bytes(8, "little") + blob[20:])
    with pytest.raises(ConfigError, match=f"n = {2 ** 40}"):
        read_matrix_dump(huge)

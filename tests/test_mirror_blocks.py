"""Mirror-symmetry block spectra against the unblocked computation.

``compute_report``, ``symmetrized_spectrum`` and the study split K and S
into the character blocks of the grid's mirror group; these tests compare
every merged number with the same route on the grid stripped of its
mirrors (one block, the whole matrices), check that the rows-only
assembly gives the blocks of the unblocked one, check that the report and
``symmetrized_spectrum`` take one route, and check which mirrors
``build_grid`` finds on catalog and derived surfaces.  A grid with the
turn takes the rotation modes instead (``tests/test_mode_blocks.py``), so
the ``CASES`` grids and reports here have their turn stripped.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from npspectra import (
    ParametricSurface,
    RunConfig,
    TopologyWarning,
    assemble_operators,
    build_grid,
    compute_report,
    ellipsoid,
    mobius_invert,
    peanut,
    rigid_transform,
    sphere,
    spectrum,
    spheroid,
    split_spectrum,
    symmetrized_spectrum,
    torus,
)
from npspectra import operators, pipeline
from test_operators import _two_sphere_union

# a rotation that moves every coordinate plane off itself
_ROTATION = sla.expm(np.array([[0, -0.3, 0.5], [0.3, 0, -0.2],
                               [-0.5, 0.2, 0]]))


def _ellipsoid():
    return ellipsoid(2.0, 1.2, 1.0)


# surface, resolution, order of the mirror group, tolerance of the
# block-against-dense comparisons
CASES = {
    "sphere-12x24": (sphere, (12, 24), 8, 1e-12),
    "spheroid-12x24": (lambda: spheroid(1.0, 1.6), (12, 24), 8, 1e-12),
    "ellipsoid-16x32": (_ellipsoid, (16, 32), 8, 1e-12),
    "peanut-16x32": (peanut, (16, 32), 8, 1e-12),
    "torus-16x16": (torus, (16, 16), 8, 1e-12),
    # v -> pi - v misses the nodes at odd n_v: only y and z mirrors remain
    "ellipsoid-16x31": (_ellipsoid, (16, 31), 4, 1e-12),
    # finite-difference normals and weights carry rounding of about
    # eps / FD_STEP = 2e-11, so K and S commute with the mirrors only to
    # that level: block and dense eigenvalues are 3e-12 apart
    "fd-ellipsoid-16x32": (
        lambda: _ellipsoid().with_derivative_mode("finite_difference"),
        (16, 32), 8, 1e-10),
    # derived surfaces keep the mirrors their geometry has
    "inverted-sphere-16x32": (
        lambda: mobius_invert(sphere(), (3.0, 0.0, 0.0)), (16, 32), 4, 1e-12),
    "half-turned-ellipsoid-16x32": (
        lambda: rigid_transform(_ellipsoid(), np.diag([-1.0, -1.0, 1.0])),
        (16, 32), 8, 1e-12),
    "translated-sphere-16x32": (
        lambda: rigid_transform(sphere(), None, (9.0, 0.0, 0.0)), (16, 32),
        4, 1e-12),
    "inverted-torus-16x16": (
        lambda: mobius_invert(torus(), (0.0, 0.0, 3.0)), (16, 16), 4, 1e-12),
    # blocks of 6, 3, 3, 2, 1 and 1 nodes: a 1 x 1 block's skew part is
    # zero, and ARPACK takes neither a 1 x 1 nor a zero operator
    "torus-4x4": (torus, (4, 4), 8, 1e-12),
}


def _signed(report):
    return np.sort(np.concatenate([report.lambda_plus,
                                   -report.lambda_minus]))


def _exact_norms(kw, sw):
    """Plemelj residual and asymmetry norm of the whole matrices, by svdvals.

    An oracle independent of the Lanczos norms that both routes compute.
    """
    def norm(m):
        return sla.svdvals(m)[0]

    low = sla.cholesky(-sw, lower=True)
    kt = sla.solve_triangular(low, kw @ low, lower=True)
    ks = kw @ sw
    return {"plemelj_residual": norm(ks - ks.T) / (norm(kw) * norm(sw)),
            "asymmetry_norm": norm(kt - kt.T) / norm(kt + kt.T)}


def _dense(grid):
    """The block route on the grid without its mirrors and turn: one whole
    block.

    The oracle dict also carries ``raw_eigs``, the sorted real parts of
    the eigenvalues of K_w itself, unsymmetrized.
    """
    whole = dataclasses.replace(grid, mirrors=grid.mirrors[:1], turn=False)
    stacks, _ = spectrum._operator_blocks(whole)
    _, _, sym = operators._symmetrize_blocks(whole, stacks, [1])
    (((kw,), (sw,)),) = stacks
    eigs = np.sort(sla.eigvalsh(sym.matrix))
    exact = _exact_norms(kw, sw)
    exact["raw_eigs"] = np.sort(np.linalg.eigvals(kw).real)
    return eigs, np.sort(sla.svdvals(kw)), sym, exact


def _report(surface, res):
    return compute_report(RunConfig(surface=surface, surface_spec={},
                                    resolution=res, noise_cutoff=1e-300))


def _without_turn(surface, n_u, n_v):
    """``build_grid`` with the turn stripped: the grid takes the mirror
    blocks."""
    return dataclasses.replace(build_grid(surface, n_u, n_v), turn=False)


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    make_surface, res, order, tol = CASES[request.param]
    grid = _without_turn(make_surface(), *res)
    eigs, svals, dense, exact = _dense(grid)
    # the report's Gauss-Bonnet integral is 2.005 on the coarse peanut
    expected = pytest.warns(TopologyWarning, match="Gauss-Bonnet") \
        if request.param == "peanut-16x32" else contextlib.nullcontext()
    with expected, pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "build_grid", _without_turn)
        report, sym = _report(make_surface(), res)
    return grid, order, tol, eigs, svals, dense, exact, report, sym


def test_group_reflects_the_grid(case):
    grid, order, *_ = case
    assert grid.mirrors.shape == (order, grid.n_nodes)
    np.testing.assert_array_equal(grid.mirrors[0], np.arange(grid.n_nodes))
    for perm in grid.mirrors:
        np.testing.assert_array_equal(np.sort(perm), np.arange(grid.n_nodes))
        np.testing.assert_array_equal(perm[perm], np.arange(grid.n_nodes))
    assert len({perm.tobytes() for perm in grid.mirrors}) == order


def test_spectra_match_dense(case):
    _, _, tol, eigs, svals, _, _, report, _ = case
    assert _signed(report).size == eigs.size
    assert np.abs(_signed(report) - eigs).max() <= tol
    assert np.abs(np.sort(report.singular_values) - svals).max() <= tol


def test_diagnostics_match_dense(case):
    _, _, tol, _, _, dense, exact, report, _ = case
    diag, ref = report.diagnostics, dense.diagnostics
    assert abs(diag["min_eig_negS"] - ref["min_eig_negS"]) \
        <= tol * ref["min_eig_negS"]
    for key in ("plemelj_residual", "asymmetry_norm"):
        assert abs(ref[key] - exact[key]) <= 1e-12 * exact[key]
        # 1e-10 on exact charts; the finite-difference mirrors commute
        # with K and S only to about 2e-11, which moves the block norms by
        # about 1e-9 (see the fd-ellipsoid case)
        assert abs(diag[key] - exact[key]) <= 100 * tol * exact[key]
    # Bauer & Fike: K_w is similar to sym + skew, so each raw eigenvalue
    # lies within max |skew_b| of a symmetrized one, and that bound is
    # exactly asymmetry_norm max|lambda|; the sorted pairs are held to it
    # (they read at most 3.5% of it, on torus-4x4)
    signed = _signed(report)
    bound = diag["asymmetry_norm"] * np.abs(signed).max()
    assert np.abs(exact["raw_eigs"] - signed).max() <= bound


def test_asymmetry_norm_is_the_largest_skew_norm_over_the_spectrum(case):
    # the skew parts of the blocks, by Cholesky factors of their own
    grid, *_, report, _ = case
    stacks, _ = spectrum._operator_blocks(grid)
    skew_norms = []
    for k, s in ((k, s) for ks, ss in stacks for k, s in zip(ks, ss)):
        low = sla.cholesky(-s, lower=True)
        kt = sla.solve_triangular(low, k @ low, lower=True)
        skew_norms.append(sla.svdvals(0.5 * (kt - kt.T))[0])
    want = max(skew_norms)
    got = report.diagnostics["asymmetry_norm"] * np.abs(_signed(report)).max()
    assert abs(got - want) <= 1e-12 * want


def test_symmetrized_matrix_is_exactly_symmetric(case):
    grid, *_, report, sym = case
    assert sym.basis == "symmetrized" and sym.n == grid.n_nodes
    assert np.array_equal(sym.matrix, sym.matrix.T)
    assert np.abs(np.sort(sla.eigvalsh(sym.matrix))
                  - _signed(report)).max() <= 1e-12


def _filled(rows, perms):
    """The matrix A[h r_a] = rows[a][h] of representative rows ``rows``.

    Written with the identity last, so that a representative fixed by a
    stabilizer element keeps its own row; on every ``CASES`` grid some
    such row differs from its permuted copies in the last bits.
    """
    reps = operators._representatives(perms)
    out = np.empty((perms.shape[1], perms.shape[1]))
    for perm in perms[1:]:
        out[perm[reps]] = rows[:, perm]
    out[reps] = rows
    return out


def _dump_bytes(op, path):
    operators.dump_operator(op, path)
    blob = path.read_bytes()
    assert operators.read_matrix_dump(path)[1] == op.basis
    return blob[32:]


@pytest.mark.parametrize("chunk_rows", [None, 7],
                         ids=["default-chunks", "7-row-chunks"])
def test_matrix_dump_is_the_matrix_byte_for_byte(case, chunk_rows, tmp_path,
                                                 monkeypatch):
    grid, *_, sym = case
    if chunk_rows:
        monkeypatch.setattr(operators, "_DUMP_ENTRIES",
                            chunk_rows * grid.n_nodes)
    k_op, s_op = assemble_operators(grid)
    # a fresh copy of the report's operator, whose matrix is not yet built
    for i, op in enumerate((k_op, s_op, dataclasses.replace(sym))):
        data = _dump_bytes(op, tmp_path / f"op{i}.bin")
        assert "matrix" not in op.__dict__
        assert data == _filled(op.rows, grid.mirrors).tobytes()
        assert data == op.matrix.tobytes()


@pytest.mark.parametrize("chunk_rows", [None, 7],
                         ids=["default-chunks", "7-row-chunks"])
def test_matrix_dump_of_full_rows_streams_the_rows(chunk_rows, tmp_path,
                                                   monkeypatch):
    mirrored = build_grid(sphere(), 12, 24)
    plain = build_grid(mobius_invert(sphere(), (3.0, 0.5, 0.2)), 12, 24)
    assert plain.mirrors.shape[0] == 1
    _, _, sym = symmetrized_spectrum(plain)
    ops = [operators.to_weighted_l2(assemble_operators(mirrored)[0]),
           *assemble_operators(plain), sym]
    for i, op in enumerate(ops):
        if chunk_rows:
            monkeypatch.setattr(operators, "_DUMP_ENTRIES",
                                chunk_rows * op.n)
        assert op.rows.shape == (op.n, op.n)
        chunks = list(operators._matrix_chunks(op))
        assert len(chunks) == (-(-op.n // chunk_rows) if chunk_rows else 1)
        assert all(np.shares_memory(c, op.rows) for c in chunks)
        assert _dump_bytes(op, tmp_path / f"op{i}.bin") == op.rows.tobytes()
        assert op.matrix is op.rows


def test_study_counts_match_eigvalsh(case):
    grid, _, _, eigs, *_ = case
    neg = eigs[eigs < 0]
    gaps = 0.5 * (neg[:-1] + neg[1:])[np.diff(neg) > 1e-9]
    for t in [1e-3, *(-gaps[::8])]:
        assert spectrum._negative_count(grid, t) == np.count_nonzero(
            eigs < -t), t


@pytest.mark.parametrize("make_grid", [
    lambda: build_grid(rigid_transform(_ellipsoid(), _ROTATION,
                                       (0.4, -1.0, 2.0)), 16, 32),
    lambda: build_grid(mobius_invert(sphere(), (3.0, 0.5, 0.2)), 16, 32),
    _two_sphere_union,
], ids=["rotated-ellipsoid", "inverted-sphere", "two-spheres"])
def test_surfaces_without_mirrors_take_the_dense_route(make_grid,
                                                       monkeypatch):
    grid = make_grid()
    assert grid.mirrors.shape == (1, grid.n_nodes)
    eigs, svals, dense, _ = _dense(grid)
    k_op, s_op = assemble_operators(grid)
    blocks, mult = operators._split_blocks(grid, k_op.rows, s_op.rows)
    # one stack of one block, a view of the rows converted in place
    assert len(blocks) == 1 and blocks[0][0].base is k_op.rows
    assert np.array_equal(mult, [1])
    sym_blocks = []
    symmetrize = operators._plemelj_symmetrize

    def recording(batch):
        result = symmetrize(batch)
        sym_blocks.extend(result[2])
        return result

    monkeypatch.setattr(operators, "_plemelj_symmetrize", recording)
    _, _, sym = operators._symmetrize_blocks(grid, blocks, [1])
    # one stack of one block, whose storage the operator holds, not a copy
    assert len(sym_blocks) == 1 and sym_blocks[0].shape[0] == 1
    assert sym.rows.base is sym_blocks[0] and sym.rows is sym.matrix
    assert np.abs(np.sort(sla.eigvalsh(sym.matrix)) - eigs).max() <= 1e-12
    assert np.abs(np.sort(sla.svdvals(blocks[0][0][0]))
                  - svals).max() <= 1e-12
    assert np.abs(sym.matrix - dense.matrix).max() <= 1e-12
    for key in ("min_eig_negS", "plemelj_residual", "asymmetry_norm"):
        ref = dense.diagnostics[key]
        assert abs(sym.diagnostics[key] - ref) <= 1e-10 * ref
    assert spectrum._negative_count(grid, 1e-3) == np.count_nonzero(
        eigs < -1e-3)


@pytest.mark.parametrize("name", [
    "peanut-16x32", "ellipsoid-16x31", "torus-16x16", "sphere-12x24",
    "torus-4x4"])
def test_rows_only_assembly_matches_the_unblocked_one(name):
    make_surface, res, *_ = CASES[name]
    grid = _without_turn(make_surface(), *res)
    whole = dataclasses.replace(grid, mirrors=grid.mirrors[:1])
    ops = [op.matrix for op in assemble_operators(grid)]
    refs = [op.matrix for op in assemble_operators(whole)]
    reps = operators._representatives(grid.mirrors)
    assert reps.size < grid.n_nodes
    for a, ref in zip(ops, refs):
        # the representative rows are computed, the others permuted copies
        assert np.abs(a[reps] - ref[reps]).max() \
            <= 1e-12 * np.abs(ref[reps]).max()
        assert np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(ops[0] @ np.ones(grid.n_nodes) - 0.5).max() <= 1e-15
    # _split_blocks takes only the representative rows
    blocks, _ = operators._split_blocks(grid, *(a[reps] for a in ops))
    ref_blocks, _ = operators._split_blocks(grid, *(a[reps] for a in refs))
    assert len(blocks) == len(ref_blocks)
    for pair, ref_pair in zip(blocks, ref_blocks):
        for b, ref_b in zip(pair, ref_pair):
            assert np.abs(b - ref_b).max() <= 1e-12 * np.abs(ref_b).max()


@pytest.mark.parametrize("make_surface, res", [
    (_ellipsoid, (16, 32)),
    (lambda: rigid_transform(_ellipsoid(), _ROTATION, (0.4, -1.0, 2.0)),
     (16, 32)),
], ids=["ellipsoid", "rotated-ellipsoid"])
def test_symmetrized_spectrum_is_the_report_route(make_surface, res):
    eigs, svals, sym = symmetrized_spectrum(build_grid(make_surface(), *res))
    report, report_sym = _report(make_surface(), res)
    plus, minus = split_spectrum(eigs, 1e-300)
    assert plus.size + minus.size == eigs.size
    assert np.array_equal(plus, report.lambda_plus)
    assert np.array_equal(minus, report.lambda_minus)
    assert np.array_equal(svals, report.singular_values)
    assert np.array_equal(sym.matrix, report_sym.matrix)
    assert sym.diagnostics == {key: report.diagnostics[key]
                               for key in sym.diagnostics}


def test_derived_surfaces_keep_or_drop_mirrors():
    base = _ellipsoid()
    orders = {
        "finite-difference": build_grid(
            base.with_derivative_mode("finite_difference"), 16, 32),
        "rotated": build_grid(rigid_transform(base, _ROTATION), 16, 32),
        "inverted": build_grid(mobius_invert(sphere(), (3.0, 0.0, 0.0)),
                               16, 32),
        "union": _two_sphere_union(),
    }
    assert {name: g.mirrors.shape[0] for name, g in orders.items()} == {
        "finite-difference": 8, "rotated": 1, "inverted": 4, "union": 1}


def _egg():
    """Egg-shaped body of revolution: not symmetric under z -> -z."""
    def fx(u, v):
        r = 1.0 + 0.2 * np.cos(u)
        su = np.sin(u)
        # z depends on u alone: broadcast it, as the chart contract asks
        return np.stack(np.broadcast_arrays(r * su * np.cos(v),
                                            r * su * np.sin(v),
                                            r * np.cos(u)), axis=-1)

    return ParametricSurface(fx, kind="polar", name="egg")


def test_egg_keeps_its_x_and_y_mirrors():
    n_u, n_v = 12, 24
    grid = build_grid(_egg(), n_u, n_v)
    # the z-mirror candidate u -> pi - u sends nodes to nodes, but its
    # points miss their reflections by far more than any tolerance
    iu, iv = np.divmod(np.arange(n_u * n_v), n_v)
    perm = (n_u - 1 - iu) * n_v + iv
    x = grid.points
    assert np.max(np.abs(x[perm] - x * [1.0, 1.0, -1.0])) > 0.1
    # so the group is the x and y mirrors of a sphere grid
    np.testing.assert_array_equal(
        grid.mirrors, build_grid(sphere(), n_u, n_v).mirrors[:4])
    eigs, svals, *_ = _dense(grid)
    report, _ = _report(_egg(), (n_u, n_v))
    # finite-difference chart: tolerance as for the fd-ellipsoid case
    assert np.abs(_signed(report) - eigs).max() <= 1e-10
    assert np.abs(np.sort(report.singular_values) - svals).max() <= 1e-10

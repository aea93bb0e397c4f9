"""Dense Nystrom assembly of the boundary layer operators.

The double-layer operator has kernel (1/4 pi) <y - x, n(y)> / |x - y|^3 and
the single-layer operator kernel -(1/4 pi) / |x - y|.  Both are assembled as
dense matrices acting on point values (``nystrom`` basis, entry = kernel
times target weight); assembly forms no square-root weights.  Conjugated
by them (``weighted_l2`` basis) the single layer is symmetric; an entry
changes basis only in ``_mirror_blocks`` and ``to_weighted_l2``.

Plain one-point products are spectrally accurate only for well-separated
node pairs.  Near-diagonal entries (pairs closer than a few local cell
diameters) are therefore replaced by Gauss-Legendre integrals of the kernel
over the target node's parameter cell, and the single-layer diagonal by a
polar (Duffy-style) integral over the node's own cell.  These corrections
are what keep -S positive definite and the spectrum's negative tail clean
at production resolutions, so they are always applied.

Assembly computes only the rows of the orbit representatives of the grid's
mirror group, the smallest node of each orbit: about n/8 rows on a catalog
grid, every row on a grid without mirrors.  It writes their one-point
products in row blocks, which also find the near pairs.  The cell
integrals then evaluate the surface chart once per quadrature panel on
each cell that some near pair integrates over, not once per near pair
nor on every cell, on the panel's tensor axes (u and v nodes as
broadcastable axes, so a term of u alone runs once per u node), fold the
weights into those samples, and gather from that per-cell cache in
bounded chunks, one contiguous plane per coordinate.  The self-cell rule
samples a polar pattern, not a tensor product, and takes full arrays.
An operator holds only these rows (``DiscreteOperator.rows``).  Every
other row is a permuted copy of a representative row
(``_orbit_sources``), gathered from them
(``_fill_orbits``) into the n x n matrix only when
``DiscreteOperator.matrix`` is first read, and into bounded chunks when a
matrix dump streams them to its file (``dump_operator``).  Beyond the two
returned row arrays, assembly therefore holds temporaries of O(n) plus a
few dozen MiB, independent of n^2.

Symmetrization has one route.  K and S commute with the mirror
permutations of the grid's nodes and split into one block per character
of the mirror group (``_mirror_blocks``; a grid without mirrors is one
block).  Each block is symmetrized through its own single layer
(``_symmetrize_blocks``), so the reports, the study and
``spectrum.symmetrized_spectrum`` do dense work on blocks of about n/8
nodes on a catalog grid, and read only the representative rows; so does
a matrix dump.  No n x n array is built unless a caller reads ``matrix``.
Every per-block step runs through ``_map_blocks``: the blocks side by side
on a thread pool, each LAPACK call on one BLAS thread.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from ._fileio import atomic_write
from .errors import (ConfigError, GridError, NotPositiveDefinite,
                     NumericalError)
from .grids import QuadratureGrid
from .surfaces import _chart_on_axes

FOUR_PI = 4.0 * np.pi

# near-field correction defaults, fixed by a pre-build refinement study
NEAR_RADIUS_CELLS = 2.5      # pairs within this many mean cell diameters
CELL_QUAD = 6                # Gauss-Legendre points per cell direction
TOUCH_RADIUS_CELLS = 1.0     # pairs this close also get subdivided cells
CELL_SUBDIV = 3              # subdivision factor for touching pairs
SELF_QUAD = 8                # radial/angular points of the self-cell rule

# matrix entries per far-field row block and quadrature samples per chunk of
# near pairs; bounds assembly's temporaries to a few dozen MiB at any n
_BLOCK_ENTRIES = 1 << 17
# matrix entries per row chunk of a matrix dump (2 MiB of float64)
_DUMP_ENTRIES = 1 << 18

_BASIS_TAGS = {"nystrom": 1, "weighted_l2": 2, "symmetrized": 3}
_TAG_BASES = {v: k for k, v in _BASIS_TAGS.items()}
_DUMP_HEADER = struct.Struct("<4sIIQ12x")
_DUMP_MAGIC = b"NPOP"
_DUMP_VERSION = 1


@dataclass
class DiscreteOperator:
    """Dense discretization of a layer operator on a fixed grid.

    The operator commutes with the node permutations of the grid's mirror
    group (``grid.mirrors``), so it is held by ``rows``: the rows of the
    orbit representatives, the smallest node of each orbit, in ascending
    order.  An array of n rows is the whole matrix; so are the rows of a
    grid without mirrors.  ``matrix`` is the n x n array, gathered from
    ``rows`` (``_fill_orbits``) the first time it is read and kept from
    then on; when ``rows`` has n rows it is ``rows`` itself, not a copy.
    A matrix dump (``dump_operator``) streams the same rows from ``rows``
    in bounded chunks, with the same bits, and neither reads nor builds
    ``matrix``.

    ``basis`` is ``"nystrom"``, ``"weighted_l2"`` or ``"symmetrized"``.  For
    the symmetrized double layer, ``diagnostics`` records ``min_eig_negS``
    (positivity margin of the single layer), ``asymmetry_norm`` (relative
    norm of the skew part that was discarded) and ``plemelj_residual``.
    """

    rows: np.ndarray
    basis: str
    grid: QuadratureGrid = field(repr=False)
    diagnostics: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.rows.shape[0] == self.n:
            return self.rows
        perms = self.grid.mirrors
        return _fill_orbits(self.rows, perms, _orbit_sources(perms),
                            np.empty((self.n, self.n)))


# ------------------------------------------------------------------ helpers
def _cell_diameters(grid: QuadratureGrid) -> np.ndarray:
    hu = (grid.cell_u_hi - grid.cell_u_lo) * np.sqrt(grid.frames.E)
    hv = grid.cell_dv * np.sqrt(grid.frames.G)
    return np.hypot(hu, hv)


def _block_rows(n: int) -> int:
    """Rows per far-field block: about _BLOCK_ENTRIES matrix entries."""
    return max(1, _BLOCK_ENTRIES // n)


def _panel_geometry(grid, comp, cells, gx, gw, a, b, nsub):
    """Chart samples on panel (a, b) of the parameter cells ``cells``.

    ``cells`` are node indices of ``comp`` minus comp.start.  Panel (a, b)
    of the nsub x nsub split of a node's cell carries a q x q
    Gauss-Legendre rule.  The chart receives the rule's nodes as the
    tensor axes ``uq[:, :, None]`` and ``vq[:, None, :]``, so terms of u
    alone or of v alone are evaluated on cells x q points, not on
    cells x q x q; for the catalog charts each sample is bit for bit that
    of an evaluation on the broadcast (cells, q, q) arrays.  Returns y,
    cross(y_u, y_v) and its norm ``jac`` at the rule's points, and the
    tensor weights ``ww``, each indexed like ``cells`` along the first
    axis.  The chart is evaluated elementwise, so every sample equals that
    of an evaluation on all cells of ``comp``.

    Raises
    ------
    ConfigError
        If the chart does not broadcast its arguments on the tensor axes
        (``surfaces._chart_on_axes``).  ``build_grid`` probes the same
        contract on 2 x 2 nodes, so only a chart that breaks on rank-3
        arguments gets this far.
    """
    nodes = comp.start + cells
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
    y, yu, yv = _chart_on_axes(comp.surface, uq[:, :, None], vq[:, None, :])
    cr = np.cross(yu, yv)
    jac = np.sqrt(np.sum(cr * cr, axis=-1))
    ww = wu[:, :, None] * wv[:, None, :]
    return y, cr, jac, ww


def _cell_kernel_integrals(grid, comp, src, tgt, q, nsub):
    """Kernel integrals over target parameter cells from source points.

    For each pair (src[p], tgt[p]), with tgt[p] owned by component ``comp``,
    integrates both kernels over tgt's parameter cell with an nsub x nsub
    panel split and a q x q Gauss-Legendre rule per panel.  The chart is
    evaluated once per target cell and panel on its tensor axes
    (``_panel_geometry``), panel by panel, on the distinct cells of ``tgt``
    only.  Each panel's samples y and weighted normals are then copied into
    three contiguous (cells, q^2) coordinate planes, and the pairs gather
    from them in chunks of about _BLOCK_ENTRIES samples: per plane
    d_k = y_k - x_k, then r^2 = d_0^2 + d_1^2 + d_2^2 and the numerator
    sum_k d_k crw_k by elementwise products, and ``einsum`` only for the
    sums over the q^2 samples.

    Returns
    -------
    (I_S, I_K)
        I_S = integral of 1/(4 pi |y - x|) dS(y),
        I_K = integral of <y - x, n(y)>/(4 pi |y - x|^3) dS(y).
    """
    sign = comp.surface.orientation_sign()
    gx, gw = np.polynomial.legendre.leggauss(q)
    cells, loc = np.unique(tgt - comp.start, return_inverse=True)
    x_src = grid.points[src]
    n_pairs = len(src)
    chunk = max(1, _BLOCK_ENTRIES // (q * q))
    i_s = np.zeros(n_pairs)
    i_k = np.zeros(n_pairs)
    for a in range(nsub):
        for b in range(nsub):
            y, cr, jac, ww = _panel_geometry(grid, comp, cells, gx, gw,
                                             a, b, nsub)
            # weights, 1/(4 pi) and the orientation folded into the samples;
            # y and crw as planes (3, cells, q^2), one per coordinate
            jw = (jac * ww / FOUR_PI).reshape(cells.size, q * q)
            crw = _planes(cr * (sign * ww / FOUR_PI)[..., None])
            y = _planes(y)
            for c0 in range(0, n_pairs, chunk):
                c = slice(c0, c0 + chunk)
                cell = loc[c]
                d = [y[k][cell] for k in range(3)]
                for k in range(3):
                    d[k] -= x_src[c, k, None]
                inv = d[0] * d[0]
                inv += d[1] * d[1]
                inv += d[2] * d[2]
                np.sqrt(inv, out=inv)
                np.divide(1.0, inv, out=inv)
                i_s[c] += np.einsum("pi,pi->p", jw[cell], inv)
                num = d[0] * crw[0][cell]
                num += d[1] * crw[1][cell]
                num += d[2] * crw[2][cell]
                i_k[c] += np.einsum("pi,pi->p", num,
                                    np.power(inv, 3, out=inv))
    return i_s, i_k


def _planes(v: np.ndarray) -> np.ndarray:
    """Vectors (cells, q, q, 3) as contiguous planes (3, cells, q^2)."""
    return np.ascontiguousarray(np.moveaxis(v, -1, 0)).reshape(
        3, v.shape[0], -1)


def _self_cell_single_layer(grid: QuadratureGrid, rows: np.ndarray,
                            n_rule: int = SELF_QUAD):
    """Diagonal single-layer integrals by a polar rule on the nodes' cells.

    The 1/|y - x| singularity at the node is removed by integrating in
    polar parameter coordinates around it (the Jacobian rho cancels the
    singularity); the cell is covered by the four wedges subtended by its
    corners.  Its samples are not a tensor product of u and v nodes, so
    the chart gets full (nodes, angles, radii) arrays.  Returns the
    positive integrals of 1/(4 pi |y - x|) dS for the nodes ``rows``, in
    their order.
    """
    out = np.zeros(rows.size)
    gx, gw = np.polynomial.legendre.leggauss(n_rule)
    for comp in grid.components:
        surf = comp.surface
        at = np.flatnonzero((rows >= comp.start) & (rows < comp.stop))
        if not at.size:
            continue
        nodes = rows[at]
        u0, v0 = grid.u[nodes], grid.v[nodes]
        x0 = grid.points[nodes]
        du_lo = grid.cell_u_lo[nodes] - u0
        du_hi = grid.cell_u_hi[nodes] - u0
        dv_half = 0.5 * grid.cell_dv[nodes]
        corners = np.stack([
            np.arctan2(-dv_half, du_hi), np.arctan2(dv_half, du_hi),
            np.arctan2(dv_half, du_lo), np.arctan2(-dv_half, du_lo),
        ], axis=1)
        corners = np.sort(np.where(corners < corners[:, :1],
                                   corners + 2 * np.pi, corners), axis=1)
        segs = np.concatenate([corners, corners[:, :1] + 2 * np.pi], axis=1)
        acc = np.zeros(u0.size)
        for s in range(4):
            a0, a1 = segs[:, s], segs[:, s + 1]
            ang = 0.5 * (a1 - a0)[:, None] * gx[None, :] \
                + 0.5 * (a1 + a0)[:, None]
            w_ang = 0.5 * (a1 - a0)[:, None] * gw[None, :]
            ca, sa = np.cos(ang), np.sin(ang)
            with np.errstate(divide="ignore", invalid="ignore"):
                r_u = np.where(ca > 1e-14, du_hi[:, None] / ca,
                               np.where(ca < -1e-14, du_lo[:, None] / ca,
                                        np.inf))
                r_v = np.where(sa > 1e-14, dv_half[:, None] / sa,
                               np.where(sa < -1e-14, -dv_half[:, None] / sa,
                                        np.inf))
            r_max = np.minimum(r_u, r_v)
            rho = 0.5 * r_max[..., None] * (gx + 1.0)
            w_rho = 0.5 * r_max[..., None] * gw
            uu = u0[:, None, None] + rho * ca[..., None]
            vv = v0[:, None, None] + rho * sa[..., None]
            y = surf.position(uu, vv)
            yu, yv = surf.first_derivatives(uu, vv)
            jac = np.sqrt(np.sum(np.cross(yu, yv) ** 2, axis=-1))
            dist = np.sqrt(np.sum((y - x0[:, None, None, :]) ** 2, axis=-1))
            np.clip(dist, 1e-300, None, out=dist)
            acc += np.einsum("nar,nar,na->n",
                             jac * rho / (FOUR_PI * dist), w_rho, w_ang)
        out[at] = acc
    return out


# ------------------------------------------------------------------ assembly
def _representatives(perms: np.ndarray) -> np.ndarray:
    """The smallest node of each orbit of the mirror group, ascending.

    On a grid without mirrors every node is its own orbit.
    """
    return np.flatnonzero(perms.min(axis=0) == np.arange(perms.shape[1]))


def _orbit_sources(perms: np.ndarray):
    """Where each row of a matrix commuting with ``perms`` is copied from.

    Returns (src, elem): row i is ``rows[src[i]]`` permuted by the group
    element elem[i], A[i, j] = rows[src[i], perms[elem[i], j]], where
    ``rows`` are the rows of the orbit representatives and
    i = perms[elem[i], reps[src[i]]].  Found in O(n |G|) by replaying the
    writes A[h r_a] = rows[a][h] over the group elements with the identity
    last, so a representative fixed by a stabilizer element keeps its own
    row, not a permuted copy that equals it only to rounding.
    """
    reps = _representatives(perms)
    src = np.empty(perms.shape[1], dtype=np.intp)
    elem = np.empty(perms.shape[1], dtype=np.intp)
    for h in (*range(1, perms.shape[0]), 0):
        src[perms[h, reps]] = np.arange(reps.size)
        elem[perms[h, reps]] = h
    return src, elem


def _fill_orbits(rows: np.ndarray, perms: np.ndarray, sources,
                 out: np.ndarray, start: int = 0) -> np.ndarray:
    """Write rows start, start + 1, ... of the full matrix into ``out``.

    The matrix commutes with ``perms`` and has the representative rows
    ``rows``; ``sources`` is ``_orbit_sources(perms)``.  Each row is one
    gather of a representative row, A[h r_a, j] = A[r_a, h j], so the
    entries are the rows' own bits.  Returns ``out``.
    """
    src, elem = sources
    for i, row in enumerate(out, start):
        row[:] = rows[src[i]][perms[elem[i]]]
    return out


def _check_finite(name: str, rows: np.ndarray, reps: np.ndarray) -> None:
    """Raise NumericalError at the first non-finite entry of ``rows``.

    ``rows`` are the rows of the nodes ``reps`` of one operator.  Checked
    before they leave assembly, so that a fault in a cell integral or the
    self-cell rule is reported here, not by an eigensolver or a Cholesky
    factorization as an untyped error.
    """
    if not np.isfinite(rows).all():
        r, j = np.argwhere(~np.isfinite(rows))[0]
        raise NumericalError(
            f"{name} entry ({reps[r]}, {j}) is {rows[r, j]}; the chart "
            f"or the grid is degenerate near these nodes")


def assemble_operators(grid: QuadratureGrid):
    """Assemble the double- and single-layer operators in one pass.

    Off-diagonal entries are the one-point products
    (1/4 pi) <x_j - x_i, n_j>/|x_i - x_j|^3 w_j for the double layer and
    -(1/4 pi)/|x_i - x_j| w_j for the single layer, except for near pairs,
    whose entries are cell integrals of the kernels.  The single-layer
    diagonal is the polar self-cell integral; the double-layer diagonal is
    fixed by the row-sum identity K_ii = 1/2 - sum_{j != i} K_ij, which
    makes the constant vector an exact eigenvector with eigenvalue 1/2.

    K and S commute with the node permutations of the grid's mirror group
    (``grid.mirrors``), so only the rows of the orbit representatives, the
    smallest node of each orbit, are computed: about n/8 rows on a catalog
    grid, all n rows on a grid without mirrors.  The operators hold only
    these rows; the other rows are permuted copies, gathered
    (``_fill_orbits``) only when ``DiscreteOperator.matrix`` is read or a
    matrix dump streams them.  The block route (``_mirror_blocks``) reads
    the rows alone.

    The near-field cell integrals share all geometry evaluations between
    the two kernels, so assembling the pair together costs far less than
    two separate assemblies.  Far-field entries are written in row blocks
    of about ``_BLOCK_ENTRIES`` entries, which also check for coincident
    nodes and collect the near pairs of the representatives; the cell
    integrals then run over the pair list from a per-cell cache of chart
    samples, taken only on the cells the pairs integrate over.  A near pair
    (i, j) integrates both directions, I_ij over cell j seen from x_i and
    I_ji over cell i seen from x_j, and the single-layer entry
    S_ij = -(I_ij + I_ji w_j / w_i) / 2 averages them so that S is
    symmetric in the weighted_l2 basis.  Each entry is formed from its own
    row and column alone, so a grid rounds alike with or without its
    mirrors.  Peak memory is the two returned row arrays, about
    2 n^2 / |G| entries for a mirror group of order |G|, O(n) and a few
    dozen MiB of block temporaries.

    Parameters
    ----------
    grid : QuadratureGrid
        Grid with at least 16 nodes, no coincident nodes, and components
        separated by more than the near-field radius.

    Returns
    -------
    (DiscreteOperator, DiscreteOperator)
        Double layer and single layer, both in the nystrom basis, holding
        the representative rows; each builds its n x n ``matrix`` on first
        access.

    Raises
    ------
    GridError
        If the grid has fewer than 16 nodes, two coincident nodes, or
        nodes of different components within the near-field radius.
    NumericalError
        If an entry of a computed row of K or S is not finite, naming the
        operator and the first such (row, column).
    """
    if grid.n_nodes < 16:
        raise GridError(f"grid has {grid.n_nodes} nodes, need >= 16")
    x = grid.points
    nrm = grid.normals
    w = grid.weights
    n = grid.n_nodes
    scale = float(np.max(np.ptp(x, axis=0)))
    perms = grid.mirrors
    reps = _representatives(perms)
    # row of each representative in the row arrays, -1 for other nodes
    pos = np.full(n, -1)
    pos[reps] = np.arange(reps.size)
    kmat = np.empty((reps.size, n))
    smat = np.empty((reps.size, n))
    diam = _cell_diameters(grid)
    comp_id = np.empty(n, dtype=int)
    for k, c in enumerate(grid.components):
        comp_id[c.slice] = k
    pairs, cross = [], None
    step = _block_rows(n)
    for r0 in range(0, reps.size, step):
        r1 = min(reps.size, r0 + step)
        rows = reps[r0:r1]
        diff = x[rows, None, :] - x[None, :, :]
        rr = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        rr[np.arange(rows.size), rows] = np.inf
        bi, j = divmod(int(np.argmin(rr)), n)
        if rr[bi, j] <= 1e-12 * scale:
            raise GridError(
                f"coincident quadrature nodes {rows[bi]} and {j} "
                f"(distance {rr[bi, j]:.3e})")
        num = -np.einsum("ijk,jk->ij", diff, nrm)
        del diff
        kmat[r0:r1] = (num / (FOUR_PI * rr ** 3)) * w[None, :]
        del num
        smat[r0:r1] = -(1.0 / (FOUR_PI * rr)) * w[None, :]
        # near pairs within NEAR_RADIUS_CELLS mean cell diameters, the
        # touching ones among them also within TOUCH_RADIUS_CELLS
        half = 0.5 * (diam[rows, None] + diam[None, :])
        near = rr < NEAR_RADIUS_CELLS * half
        if cross is None:
            bad = near & (comp_id[rows, None] != comp_id[None, :])
            if bad.any():
                bi, j = np.argwhere(bad)[0]
                cross = (rows[bi], j)
        bi, jj = np.nonzero(near)
        ii = rows[bi]
        # a pair of two representatives is kept once, as r < j; its two
        # integrals fill both of their rows
        keep = (pos[jj] < 0) | (ii < jj)
        touch = rr[bi, jj] < TOUCH_RADIUS_CELLS * half[bi, jj]
        pairs.append((ii[keep], jj[keep], touch[keep]))
    # cross-chart cell integrals are not supported, so such grids cannot be
    # assembled accurately; raised only now so that coincident nodes in any
    # row block are reported first
    if cross is not None:
        raise GridError(
            f"nodes {cross[0]} and {cross[1]} of different components "
            f"are closer than the near-field correction radius; "
            f"separate the components or refine the grids")
    ii, jj, touch = (np.concatenate(p) for p in zip(*pairs))
    for comp in grid.components:
        in_comp = (ii >= comp.start) & (ii < comp.stop)
        for mask, nsub in ((~touch, 1), (touch, CELL_SUBDIV)):
            pick = in_comp & mask
            if not pick.any():
                continue
            pi, pj = ii[pick], jj[pick]
            m = pi.size
            # both directions in one call: cells of pj from pi, then cells
            # of pi from pj
            i_s, i_k = _cell_kernel_integrals(
                grid, comp, np.concatenate([pi, pj]),
                np.concatenate([pj, pi]), CELL_QUAD, nsub)
            # S_ij = -(I_ij + I_ji w_j / w_i) / 2, each entry from its own
            # row and column, so it rounds alike whichever end is pi
            s_ij = -0.5 * (i_s[:m] + i_s[m:] * (w[pj] / w[pi]))
            s_ji = -0.5 * (i_s[m:] + i_s[:m] * (w[pi] / w[pj]))
            smat[pos[pi], pj] = s_ij
            kmat[pos[pi], pj] = i_k[:m]
            both = pos[pj] >= 0
            smat[pos[pj[both]], pi[both]] = s_ji[both]
            kmat[pos[pj[both]], pi[both]] = i_k[m:][both]
    own = np.arange(reps.size)
    smat[own, reps] = -_self_cell_single_layer(grid, reps)
    # row-sum diagonal: the double layer maps constants to 1/2 exactly; K is
    # checked first, since the sum would spread a fault to the diagonal
    kmat[own, reps] = 0.0
    _check_finite("double-layer", kmat, reps)
    kmat[own, reps] = 0.5 - kmat.sum(axis=1)
    _check_finite("single-layer", smat, reps)
    return (DiscreteOperator(kmat, basis="nystrom", grid=grid),
            DiscreteOperator(smat, basis="nystrom", grid=grid))


# ------------------------------------------------------------------ transforms
def to_weighted_l2(op: DiscreteOperator) -> DiscreteOperator:
    """Conjugate a nystrom-basis operator by diag(sqrt(weights)).

    The result B = D A D^{-1} has identical eigenvalues and is symmetric
    whenever the kernel is symmetric in (x, y).
    """
    if op.basis != "nystrom":
        raise ConfigError(f"operator already in basis {op.basis!r}")
    sw = np.sqrt(op.grid.weights)
    return DiscreteOperator(op.matrix * (sw[:, None] / sw[None, :]),
                            basis="weighted_l2", grid=op.grid)


def _spectral_norm(m: np.ndarray) -> float:
    """Largest singular value: ARPACK Lanczos on M^T M from a seeded start.

    ARPACK takes neither a 1 x 1 nor a zero operator; a matrix of one
    column or zero has rank at most 1, so its Frobenius norm is exact.
    """
    # imported here, since only the report diagnostics need scipy.sparse
    from scipy.sparse.linalg import LinearOperator, eigsh
    n = m.shape[1]
    if n == 1 or not m.any():
        return float(np.linalg.norm(m))
    gram = LinearOperator((n, n), matvec=lambda v: m.T @ (m @ v),
                          dtype=m.dtype)
    v0 = np.random.default_rng(0).standard_normal(n)
    return float(np.sqrt(eigsh(gram, k=1, v0=v0,
                               return_eigenvectors=False)[0]))


def _plemelj_norms(k: np.ndarray, s: np.ndarray):
    """Spectral norms of K S - (K S)^T, of K and of S (S symmetric)."""
    ks = k @ s
    return _spectral_norm(ks.T - ks), _spectral_norm(k), _spectral_norm(s)


def plemelj_residual(k_op: DiscreteOperator, s_op: DiscreteOperator) -> float:
    """Relative defect of the symmetrization identity S K^T = K S.

    Returns ||S K^T - K S|| / (||K|| ||S||) in the spectral norm; both
    operators must be in the weighted_l2 basis on the same grid.  S is
    taken to be symmetric, as the weighted_l2 single layer is to rounding,
    so S K^T = (K S)^T and the commutator costs one product K S.  The
    residual vanishes for the continuous operators and decreases under
    refinement for the discretized ones.
    """
    if k_op.basis != "weighted_l2" or s_op.basis != "weighted_l2":
        raise ConfigError("plemelj_residual requires the weighted_l2 basis")
    if k_op.grid is not s_op.grid:
        raise ConfigError("operators were assembled on different grids")
    resid, k_norm, s_norm = _plemelj_norms(k_op.matrix, s_op.matrix)
    return resid / (k_norm * s_norm)


def _cholesky_neg_s(neg_s: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of -S, computed in the storage of ``neg_s``.

    ``neg_s`` holds -S in Fortran order (overwritten; with another order
    LAPACK would work on a copy).

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails, that is, -S is not positive definite.
    """
    try:
        return sla.cholesky(neg_s, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"Cholesky factorization of -S failed ({exc}); "
            f"refine the grid") from exc


def _plemelj_symmetrize(k: np.ndarray, s: np.ndarray):
    """Plemelj symmetrization of one weighted_l2 pair (K, S), and its norms.

    Factors -S = L L^T and returns sym(L^-1 K L), exactly symmetric, with
    the numbers its diagnostics merge from: the smallest eigenvalue of -S,
    the exact Lanczos norms of the discarded skew part and of L^-1 K L,
    and those of ``_plemelj_norms``.  This is Plemelj's symmetrization: S is
    symmetric and S K^T = K S, so L^-1 K L is symmetric for the continuous
    operators.  Its spectrum is that of K; another factor of -S (such as
    its square root) changes the result only by an orthogonal similarity.
    ``_symmetrize_blocks`` calls it once per mirror block.

    Raises
    ------
    NotPositiveDefinite
        If -S has a nonpositive eigenvalue or its Cholesky factorization
        fails (discretization too coarse or inconsistent geometry).
    """
    # -S and then its lower factor, in Fortran order so that the Cholesky
    # factorization and the triangular solve run in place
    lower = np.negative(s, order="F")
    min_eig = float(sla.eigvalsh(lower, subset_by_index=[0, 0])[0])
    if min_eig <= 0.0:
        raise NotPositiveDefinite(
            f"-S has min eigenvalue {min_eig:.3e}; refine the grid")
    lower = _cholesky_neg_s(lower)
    kt = np.matmul(k, lower, order="F")
    kt = sla.solve_triangular(lower, kt, lower=True, overwrite_b=True)
    del lower
    skew_norm = _spectral_norm(0.5 * (kt - kt.T))
    norms = (min_eig, skew_norm, _spectral_norm(kt), *_plemelj_norms(k, s))
    return 0.5 * (kt + kt.T), norms


def _merge_diagnostics(norms) -> dict:
    """Diagnostics of a block-diagonal operator from its blocks' norms.

    The spectral norm of an orthogonally block-diagonal matrix is the
    largest block norm and its smallest eigenvalue the smallest block one.
    """
    min_eig, skew, kt, resid, k_norm, s_norm = (
        np.array(col) for col in zip(*norms))
    return {
        "min_eig_negS": float(min_eig.min()),
        "asymmetry_norm": float(skew.max() / kt.max()),
        "plemelj_residual": float(
            resid.max() / (k_norm.max() * s_norm.max())),
    }


# ------------------------------------------------------------------ mirror blocks
def _orbits(perms: np.ndarray):
    """Orbit structure of a mirror group given by its permutation table.

    Returns the orbit representatives (the smallest node of each orbit),
    the character table chi[c, h] = (-1)^popcount(c & h) of the group (a
    product of Z2 factors, elements numbered as in ``grid.mirrors``), a
    mask valid[c, a] of the representatives whose stabilizer character c
    is +1 on (the representatives spanning block c), and the stabilizer
    order of each representative.
    """
    order = perms.shape[0]
    reps = _representatives(perms)
    fixed = perms[:, reps] == reps
    chi = np.array([[1 - 2 * (bin(c & h).count("1") % 2)
                     for h in range(order)] for c in range(order)])
    valid = ~np.any(fixed[None, :, :] & (chi[:, :, None] < 0), axis=1)
    return reps, chi, valid, fixed.sum(axis=0)


def _character_sums(terms, chi):
    """sum_h chi[c, h] terms[h] for each character c, in a fixed order.

    Elementwise and in the same order for every c, so two characters that
    agree on the terms' nonzero entries give bit-identical sums.
    """
    sums = []
    for row in chi:
        acc = terms[0].copy()
        for sign, term in zip(row[1:], terms[1:]):
            if sign > 0:
                acc += term
            else:
                acc -= term
        sums.append(acc)
    return sums


def _mirror_blocks(grid: QuadratureGrid, k: np.ndarray, s: np.ndarray):
    """Blocks of K_w and S_w on the character subspaces of the mirror group.

    ``k`` and ``s`` are the nystrom-basis representative rows of
    ``assemble_operators`` (``DiscreteOperator.rows``), and this is the one
    place on the block route where their entries change basis.  On a grid
    with mirrors they are left unchanged: each gathered entry is converted
    to the weighted_l2 basis on its own, exactly as an in-place conversion
    would convert it.  On a grid without mirrors they are the whole
    matrices and are converted in place.  The grid's mirror group G, a
    product of Z2 factors, permutes the nodes (``grid.mirrors``) and K_w
    and S_w commute with its permutations, so in the orthonormal basis
    q_{chi,a} = sum_h chi(h) e_{h r_a} / (st_a sqrt(|G| / st_a)) of the
    character chi (r_a an orbit representative whose stabilizer, of order
    st_a, chi is +1 on) both are block diagonal with blocks

        B_chi[a, b] = sum_h chi(h) A[r_a, h r_b] / sqrt(st_a st_b).

    Each block entry gathers from the row of r_a: |G| gathers of m x m
    entries for m orbits, about n^2 / |G| in all.  Returns one (K_b, S_b)
    pair per nonempty block, in character order; on a grid without
    mirrors that is the single pair (K_w, S_w), the same arrays as ``k``
    and ``s``.
    """
    sw = np.sqrt(grid.weights)
    perms = grid.mirrors
    if perms.shape[0] == 1:
        for a in (k, s):
            a *= sw[:, None]
            a /= sw[None, :]
        return [(k, s)]
    reps, chi, valid, stab = _orbits(perms)
    cols = perms[:, reps]
    scale = 1.0 / np.sqrt(stab)
    # each gathered entry converted to the weighted basis as an in-place
    # conversion of the whole matrix would, times sw[r], then over sw[j]
    projected = [_character_sums([a[:, c] * sw[reps, None] / sw[None, c]
                                  for c in cols], chi)
                 for a in (k, s)]
    blocks = []
    for c, pick in enumerate(valid):
        if pick.any():
            ix = np.ix_(pick, pick)
            f = np.outer(scale[pick], scale[pick])
            blocks.append((projected[0][c][ix] * f, projected[1][c][ix] * f))
    return blocks


def _mirror_rows(grid: QuadratureGrid, blocks) -> np.ndarray:
    """Representative rows of Q blockdiag(blocks) Q^T (``_mirror_blocks``).

    The matrix M commutes with the mirror permutations, so its rows at the
    orbit representatives determine it: M[r_a, g r_b] = sum_chi chi(g)
    B_chi[a, b] / sqrt(o_a o_b) with o = |G| / st the orbit sizes.  The
    other rows are permuted copies, M[h r_a, j] = M[r_a, h j], gathered
    by ``DiscreteOperator.matrix`` when read and by a matrix dump; an
    exactly symmetric set of blocks gives an exactly symmetric matrix.  On
    a grid without mirrors the single block is the whole matrix and is
    returned itself.
    """
    perms = grid.mirrors
    if perms.shape[0] == 1:
        return blocks[0]
    reps, chi, valid, stab = _orbits(perms)
    m, n = reps.size, perms.shape[1]
    scale = np.sqrt(stab / perms.shape[0])
    # blocks come in character order, without the empty ones
    padded = []
    blocks = iter(blocks)
    for pick in valid:
        p = np.zeros((m, m))
        if pick.any():
            p[np.ix_(pick, pick)] = next(blocks) * np.outer(scale[pick],
                                                           scale[pick])
        padded.append(p)
    rows = np.empty((m, n))
    for cols, w in zip(perms[:, reps], _character_sums(padded, chi.T)):
        rows[:, cols] = w
    return rows


def _map_blocks(fn, blocks) -> list:
    """``[fn(block) for block in blocks]``, the blocks run side by side.

    One block, the grid without mirrors, runs inline on the process's BLAS
    threads, since a large dense matrix gains from them.  Two or more run
    on a pool of up to one worker thread per usable CPU, with every
    OpenBLAS build at one thread (``_blas.single_threaded``): blocks of a
    few hundred rows are faster on one thread than on all the CPUs, their
    values then do not depend on the BLAS thread count or the CPU count,
    and the workers overlap the numpy products of one block with the work
    of another (the scipy.linalg LAPACK wrappers hold the GIL).  Results
    come in block order.  The first block in that order that fails raises
    its own exception, and blocks not yet started are cancelled.
    """
    if len(blocks) < 2:
        return [fn(b) for b in blocks]
    # imported on first use, so that importing npspectra runs none of it
    from concurrent.futures import ThreadPoolExecutor

    from . import _blas
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with _blas.single_threaded(), \
            ThreadPoolExecutor(min(len(blocks), cpus)) as pool:
        # map cancels the blocks not yet started once a result raises
        return list(pool.map(fn, blocks))


def _symmetrize_blocks(grid: QuadratureGrid, blocks):
    """Plemelj symmetrization per mirror block, and the merged operator.

    Returns the ``symmetrized`` DiscreteOperator Q blockdiag(sym_b) Q^T,
    held by its representative rows (``_mirror_rows``; its n x n ``matrix``
    is built on first access), which is the Plemelj symmetrization of K_w
    for the factor
    Q blockdiag(L_b) Q^T of -S_w (so the symmetrization for the Cholesky
    factor of the whole -S_w differs from it by an orthogonal similarity;
    on a grid without mirrors the two are the same), together with the
    list of the symmetrized blocks sym_b.  Diagnostics merge over the
    blocks: ``min_eig_negS`` is the smallest block value,
    ``plemelj_residual`` is max ||R_b|| / (max ||K_b|| max ||S_b||) and
    ``asymmetry_norm`` is max ||skew_b|| / max ||L_b^-1 K_b L_b||.

    Raises
    ------
    NotPositiveDefinite
        If some block of -S is not positive definite.
    """
    syms, norms = zip(*_map_blocks(lambda kb: _plemelj_symmetrize(*kb),
                                   blocks))
    sym = DiscreteOperator(_mirror_rows(grid, syms), basis="symmetrized",
                           grid=grid, diagnostics=_merge_diagnostics(norms))
    return sym, list(syms)


# ------------------------------------------------------------------ binary dump
def _matrix_chunks(op: DiscreteOperator):
    """The rows of ``op.matrix`` in consecutive chunks, without building it.

    Each chunk holds about ``_DUMP_ENTRIES`` entries.  An operator of n
    rows yields slices of ``rows``, with no copy.  Otherwise each chunk is
    gathered from the representative rows (``_fill_orbits``) into one
    buffer that the next chunk overwrites, with the same sources and the
    same bits as ``op.matrix``.
    """
    rows, n = op.rows, op.n
    step = max(1, _DUMP_ENTRIES // n)
    if rows.shape[0] == n:
        for i0 in range(0, n, step):
            yield rows[i0:i0 + step]
        return
    perms = op.grid.mirrors
    sources = _orbit_sources(perms)
    buf = np.empty((step, n))
    for i0 in range(0, n, step):
        yield _fill_orbits(rows, perms, sources, buf[:n - i0], i0)


def dump_operator(op: DiscreteOperator, path) -> None:
    """Write a matrix dump: 32-byte header then row-major float64 data.

    The rows are streamed in chunks of about ``_DUMP_ENTRIES`` entries,
    gathered from ``op.rows`` (``_matrix_chunks``): the dump neither reads
    nor builds the n x n ``op.matrix``, and holds O(n) plus one chunk
    beyond the rows.  It goes to a temporary file that replaces ``path``
    only once it is complete, so a write that fails at any chunk leaves
    any earlier dump intact.

    Header layout (little-endian): magic "NPOP", format version u32, basis
    tag u32 (1 = nystrom, 2 = weighted_l2, 3 = symmetrized), node count u64,
    zero padding to 32 bytes.
    """
    header = _DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION,
                               _BASIS_TAGS[op.basis], op.n)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        for chunk in _matrix_chunks(op):
            fh.write(np.ascontiguousarray(chunk, dtype="<f8"))


def read_matrix_dump(path):
    """Read a matrix dump written by ``dump_operator``.

    The file size is checked against the header's node count before any
    data is read, so a corrupt count never allocates its n^2 entries.

    Returns
    -------
    (matrix, basis)
        The n x n float64 matrix and the basis name from the header.

    Raises
    ------
    ConfigError
        On a short or corrupt header, or a file size other than
        32 + 8 n^2 bytes.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_DUMP_HEADER.size)
        if len(header) < _DUMP_HEADER.size:
            raise ConfigError(f"matrix dump of {size} bytes is shorter than "
                              f"its {_DUMP_HEADER.size}-byte header")
        magic, version, tag, n = _DUMP_HEADER.unpack(header)
        if magic != _DUMP_MAGIC:
            raise ConfigError(f"bad magic {magic!r} in matrix dump")
        if version != _DUMP_VERSION:
            raise ConfigError(f"unsupported dump version {version}")
        if tag not in _TAG_BASES:
            raise ConfigError(f"unknown basis tag {tag} in matrix dump")
        expected = _DUMP_HEADER.size + 8 * n * n
        if size != expected:
            raise ConfigError(f"matrix dump of n = {n} must have {expected} "
                              f"bytes, found {size}")
        data = np.fromfile(fh, dtype="<f8", count=n * n)
    if data.size != n * n:
        raise ConfigError("truncated matrix dump")
    return data.reshape(n, n), _TAG_BASES[tag]

"""Dense Nystrom assembly of the boundary layer operators.

The double-layer operator has kernel (1/4 pi) <y - x, n(y)> / |x - y|^3 and
the single-layer operator kernel -(1/4 pi) / |x - y|.  Both are assembled as
dense matrices acting on point values (``nystrom`` basis, entry = kernel
times target weight); assembly forms no square-root weights.  Conjugated
by them (``weighted_l2`` basis) the single layer is symmetric; an entry
changes basis only in ``_split_blocks`` and ``to_weighted_l2``.

Plain one-point products are spectrally accurate only for well-separated
node pairs.  Near-diagonal entries (pairs closer than a few local cell
diameters) are therefore replaced by Gauss-Legendre integrals of the kernel
over the target node's parameter cell, and the single-layer diagonal by a
polar (Duffy-style) integral over the node's own cell.  These corrections
are what keep -S positive definite and the spectrum's negative tail clean
at production resolutions, so they are always applied.

An operator holds the rows of the orbit representatives of the grid's
symmetry (``_row_nodes``), and assembly computes these rows and no
others: the meridian nodes (a, 0) with a the representative of its
orbit under the row mirrors (``_row_mirrors``), since every other row is
such a row mirrored and turned.  On a grid with the turn the row mirrors
are the z-mirror (a, e) -> (P a, e), where the grid keeps it, so that is
about n_u / 2 rows, or all n_u where the grid lacks the z-mirror.  A
grid without the turn is the turn of period n_v = 1, whose meridian is
every node and whose row mirrors are all its mirrors: the smallest node
of each orbit of the mirror group, about n/8 rows on a catalog grid,
every row on a grid without mirrors.  Assembly
writes their one-point products in row blocks, which also find the near
pairs.  Each near-pair integral is then taken over a row node's own
cell, mapped there by the turn and a row mirror
(``_row_cell_sources``), and each distinct (cell, source) integral once.
The cell integrals evaluate the surface chart once per quadrature panel
on those cells alone, about n_u / 2 of them on a catalog surface of
revolution, on the panel's tensor axes (u and v nodes as
broadcastable axes, so a term of u alone runs once per u node), fold the
weights into those samples, and gather from that per-cell cache in
bounded chunks, one contiguous plane per coordinate.  The self-cell rule
samples a polar pattern, not a tensor product, and takes full arrays.
An operator holds only these rows (``DiscreteOperator.rows``).  Every
other row is a mirrored and turned copy of a meridian row, at period 1
a permuted copy of a representative row (``_orbit_sources``,
``_fill_turns``), gathered into the n x n matrix only when
``DiscreteOperator.matrix`` is first read, and into bounded chunks when a
matrix dump streams them to its file (``dump_operator``).  Beyond the two
returned row arrays, assembly therefore holds temporaries of O(n) plus a
few dozen MiB, independent of n^2.

Symmetrization has one route, on the blocks of the grid's symmetry
(``_split_blocks``).  K and S commute with the turn and the y-mirror, so
they split into one real n_u x n_u block per rotation mode
m = 0 .. n_v // 2, the real part of one ``rfft`` of the meridian rows
along v, each standing for one or two blocks of the whole matrix, and
the row mirrors split each mode block into one block per character of
their group (``_character_blocks``): on a surface of revolution an even
and an odd block of the z-mirror, where the grid keeps it.  At period 1,
a grid without the turn, the one mode is the matrix itself, with no
transform, split into one block per character of the mirror group (a
grid without mirrors is one block).  Each block is symmetrized through
its own single layer
(``_symmetrize_blocks``), so the reports, the study and
``spectrum.symmetrized_spectrum`` do dense work on blocks of about n_u / 2
nodes on a catalog surface of revolution and of about n/8 nodes on
another catalog grid; the symmetrized operator keeps the blocks and joins
its rows only when read (``_join_rows``, one code path at every period:
the ``irfft`` of the row nodes' modes, none at period 1).  No n x n array
is built unless ``matrix`` is read.
The blocks are held as a list of (K, S) stacks of (b, m, m) arrays, in
block order: one stack pair per character, each the stack of the modes,
so a stack of one at period 1.  Every
per-block step runs through ``_map_blocks``, which cuts the stacks into
batches of contiguous slices (``_batches``), views that copy no data, and
runs the batches side by side on a thread pool, each LAPACK call on one
BLAS thread; a grid
whose blocks form one batch starts no pool.  Every dense step is one
numpy ``linalg`` or ``matmul`` call per slice, except the Cholesky
factors and triangular solves, one scipy LAPACK or BLAS call per block;
the factors of -S_b are taken by one function (``_factor_neg_s``) for the
reports and the study's counts alike.
numpy releases the GIL in ``matmul`` at every size, but holds it through
an ``eigvalsh`` or ``svd`` of a stack whose matrix count times m is at
most 500, as for a mirror character of a few hundred rows, a stack of
one.  So each slice's -S_b and Gram matrices K_b^T K_b share one
``eigvalsh`` of 2b matrices, which the pool runs beside the calls of
another batch.  Symmetrization is one such pass
(``_plemelj_symmetrize``): per batch it symmetrizes each slice, takes its
eigenvalues and the singular values of its K_b, and takes the skew and
commutator norms in one Lanczos run each on the block diagonal, two runs
per batch; the norms of K and of the symmetrized operator are read off
the block spectra.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

from ._fileio import atomic_write
from .errors import (ConfigError, GridError, NotPositiveDefinite,
                     NumericalError)
from .grids import QuadratureGrid
from .surfaces import _chart_on_axes, _gauss_legendre

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
# block entries per batch of consecutive blocks that ``_map_blocks`` hands
# to one call, and symmetrization takes its skew and commutator norms over
# in one Lanczos run each (1 MiB of float64)
_BATCH_ENTRIES = 1 << 17

_BASIS_TAGS = {"nystrom": 1, "weighted_l2": 2, "symmetrized": 3}
_TAG_BASES = {v: k for k, v in _BASIS_TAGS.items()}
_DUMP_HEADER = struct.Struct("<4sIIQ12x")
_DUMP_MAGIC = b"NPOP"
_DUMP_VERSION = 1


@dataclass
class DiscreteOperator:
    """Dense discretization of a layer operator on a fixed grid.

    The operator commutes with the grid's turn (``grid.turn``) and the node
    permutations of its mirror group (``grid.mirrors``), so it is held by
    ``rows``, the rows that assembly computes: those of the nodes
    ``_row_nodes``, in ascending order, the meridian nodes (a, 0) of the
    representatives a of the row mirrors (``_row_mirrors``).  On a grid
    with the turn these are the z-mirror's representatives; on a grid
    without it, the turn of period 1, the orbit representatives of the
    mirror group, the smallest node of each orbit.  An array of n rows is
    the whole matrix; so are the rows of a grid without mirrors or turn.
    ``matrix`` is the n x n
    array, gathered from ``rows`` (``_row_filler``) the first time it is
    read and kept from then on; when ``rows`` has n rows it is ``rows``
    itself, not a copy.
    A matrix dump (``dump_operator``) streams the same rows from ``rows``
    in bounded chunks, with the same bits, and neither reads nor builds
    ``matrix``.  The symmetrized operator (``_symmetrize_blocks``) is made
    with ``rows=None`` and its blocks' ``stacks``; the first read of
    ``rows`` joins them (``_join_rows``, the same call at every period),
    then drops them.

    ``basis`` is ``"nystrom"``, ``"weighted_l2"`` or ``"symmetrized"``.  For
    the symmetrized double layer, ``diagnostics`` records ``min_eig_negS``
    (positivity margin of the single layer), ``asymmetry_norm`` (norm of
    the skew part that was discarded, relative to the largest |eigenvalue|
    of the symmetrized operator) and ``plemelj_residual``.
    """

    rows: np.ndarray | None
    basis: str
    grid: QuadratureGrid = field(repr=False)
    diagnostics: dict = field(default_factory=dict)
    stacks: list | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.rows is None:
            del self.rows

    def __getattr__(self, name):
        if name != "rows":
            raise AttributeError(name)
        self.rows, self.stacks = _join_rows(self.grid, self.stacks), None
        return self.rows

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.rows.shape[0] == self.n:
            return self.rows
        return _row_filler(self)(np.empty((self.n, self.n)))


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
    panel split and a q x q Gauss-Legendre rule per panel.  Assembly
    passes the row nodes' cells as ``tgt``, each (tgt, src) pair once
    (``assemble_operators``).  The chart is
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
    gx, gw = _gauss_legendre(q)
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


def _self_cell_single_layer(grid: QuadratureGrid, rows: np.ndarray):
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
    gx, gw = _gauss_legendre(SELF_QUAD)
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


def _row_nodes(grid: QuadratureGrid) -> np.ndarray:
    """Nodes whose rows an operator holds, ascending: the meridian nodes
    (a, 0) = a * n_v of the representatives a of the row mirrors
    (``_row_mirrors``), whose rows give every other row by the mirrors and
    the turn.  At period 1, a grid without the turn, these are the orbit
    representatives of the mirror group (``_representatives``)."""
    _, table, n_v = _row_mirrors(grid)
    return _representatives(table) * n_v


def _row_mirrors(grid: QuadratureGrid):
    """The mirrors that map meridian nodes onto meridian nodes, and the
    period of the turn.

    On a grid with the turn, the elements of ``grid.mirrors`` that keep
    the v index of every node: the identity and, where the grid keeps it,
    the z-mirror (a, e) -> (P a, e), which commutes with the turn and the
    y-mirror.  A grid without the turn is the turn of period n_v = 1, whose
    meridian is every node: all its mirrors keep the v index.  Returns
    (perms, table, n_v): the row mirrors as a group table of node
    permutations, the identity first, the table of their permutations of
    the meridian indices (P a for a), and n_v; at period 1 both tables are
    ``grid.mirrors`` itself.
    """
    if not grid.turn:
        return grid.mirrors, grid.mirrors, 1
    n_v = grid.resolution[1]
    perms = grid.mirrors[np.all(
        grid.mirrors % n_v == np.arange(grid.n_nodes) % n_v, axis=1)]
    return perms, perms[:, ::n_v] // n_v, n_v


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


def _fill_turns(rows: np.ndarray, table: np.ndarray, sources, n_v: int,
                out: np.ndarray, start: int = 0) -> np.ndarray:
    """Write rows start, start + 1, ... of the full matrix into ``out``.

    The matrix commutes with the turn of an n_u x n_v grid and with the
    row mirrors, whose permutations of the meridian indices are ``table``
    (``_row_mirrors``), and has the rows ``rows`` of the meridian nodes
    (c, 0) of the representatives c (``_row_nodes``); ``sources`` is
    ``_orbit_sources(table)``.  Row (P c, e) is row (c, 0) with its u
    index permuted by P and its v index shifted by e,
    A[(P c, e), (b, f)] = A[(c, 0), (P b, f - e)].  The meridian row
    (P c, 0) is gathered once per call, straight into its own row of
    ``out`` (into a temporary if the call starts past it), and each of its
    turns in the call copied from it in two slices, so the entries are
    the rows' own bits.  At period 1 every row is a meridian row,
    A[h r_a, j] = A[r_a, h j], one gather each.  Returns ``out``.
    """
    n_u = table.shape[1]
    src, elem = sources
    held = rows.reshape(-1, n_u, n_v)
    meridian = None
    for i, row in enumerate(out.reshape(-1, n_u, n_v), start):
        a, e = divmod(i, n_v)
        if not e:
            # mode "clip" writes to ``out`` unbuffered; the indices are valid
            meridian = np.take(held[src[a]], table[elem[a]], axis=0,
                               out=row, mode="clip")
            continue
        if meridian is None:
            meridian = held[src[a]][table[elem[a]]]
        row[:, e:] = meridian[:, :n_v - e]
        row[:, :e] = meridian[:, n_v - e:]
    return out


def _row_filler(op: DiscreteOperator):
    """``fill(out, start=0)``: rows start, ... of ``op.matrix`` into ``out``,
    gathered from ``op.rows`` by the row mirrors and the turn
    (``_fill_turns``)."""
    _, table, n_v = _row_mirrors(op.grid)
    return partial(_fill_turns, op.rows, table, _orbit_sources(table), n_v)


def _row_cell_sources(grid: QuadratureGrid, rows: np.ndarray,
                      cols: np.ndarray):
    """Each integral over cell ``cols`` from x_``rows`` as one over a row
    node's cell.

    ``rows`` are row nodes (``_row_nodes``).  Column j is g rho(j) for a
    row node rho(j) and a symmetry g of the grid, which maps cells onto
    cells and commutes with both kernels, so the integral over cell j seen
    from x_r is that over cell rho(j) seen from x_{g^-1 r}.  The turn by d
    and a mirror h of ``_row_mirrors`` take the row node (c, 0) to
    (b, d) = h (c, d), with c the representative of b's orbit under h
    (``_orbit_sources`` of the row table), so rho((b, d)) = (c, 0) and
    g^-1 (a, 0) = h (a, -d), every mirror being an involution.  At
    period 1 d = 0 and g = h is a mirror of the grid; on a grid without
    mirrors or turn rho(j) = j and g is the identity.  Returns
    (cells, sources).
    """
    perms, table, n_v = _row_mirrors(grid)
    src, elem = _orbit_sources(table)
    b, d = np.divmod(cols, n_v)
    return (_representatives(table)[src[b]] * n_v,
            perms[elem[b], rows + (-d % n_v)])


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

    K and S commute with the grid's turn and with the node permutations of
    its mirror group (``grid.mirrors``), so the operators hold only the
    rows of the nodes ``_row_nodes``, and assembly computes these and no
    others: the meridian rows (a, 0) of the representatives of the row
    mirrors (``_row_mirrors``).  On a grid with the turn, with the
    z-mirror Z (a, e) = (P a, e) taken from ``grid.mirrors``, those with
    a <= P a, about n_u / 2, and all n_u on a grid without the z-mirror;
    at period 1, a grid without the turn, the orbit representatives of
    the mirror group, the smallest node of each orbit, about n/8 rows on
    a catalog grid and all n rows on a grid without mirrors.  Each row
    takes its own self-cell entry and row-sum diagonal.  The other rows
    of the matrix are mirrored and turned copies, A[Z r, j] = A[r, Z j],
    gathered (``_row_filler``) only when ``DiscreteOperator.matrix`` is
    read or a matrix dump streams them.  The block route
    (``_split_blocks``) reads every held row.

    The near-field cell integrals share all geometry evaluations between
    the two kernels, so assembling the pair together costs far less than
    two separate assemblies.  Far-field entries are written in row blocks
    of about ``_BLOCK_ENTRIES`` entries, which also check for coincident
    nodes and collect the near pairs (i, j) of the row nodes i.  Such a
    pair needs I_ij, over cell j seen from x_i, and I_ji, over cell i seen
    from x_j; K_ij = I_ij, and the single-layer entry
    S_ij = -(I_ij + I_ji w_j / w_i) / 2 averages them so that S is
    symmetric in the weighted_l2 basis.  Cell i is a row node's; I_ij is
    taken over the cell of the row node rho(j) whose image under a
    symmetry g (the turn and a row mirror) is j, from
    x_{g^-1 i} (``_row_cell_sources``), the fundamental-domain reduction
    of the near field.  The integrals form one list of distinct
    (cell, source) tasks, each integrated once, subdivided if either pair
    it serves touches, from a per-cell cache of chart samples taken on
    the row nodes' cells alone: on a surface of revolution the backward
    integrals of the held meridian rows are all the tasks there are, half
    as many with the z-mirror as without it (677 against 1354 on the
    24x48 sphere).  On a grid without mirrors or turn rho(j) = j and the
    entries are those of integrating each pair in both directions; on a
    grid with them a row of ``matrix`` agrees with the row of the same
    grid without them to rounding (the mapped cell's samples round
    differently, and a mirrored row's diagonal was summed in another
    order).  Peak memory is the two returned row arrays, about n_u n
    entries on a grid with the turn and the z-mirror, 2 n_u n with the
    turn alone and about 2 n^2 / |G| entries for a mirror group of order
    |G|, O(n) and a few dozen MiB of block temporaries.

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
        If an entry of a row of K or S is not finite, naming the operator
        and the first such (row, column).
    """
    if grid.n_nodes < 16:
        raise GridError(f"grid has {grid.n_nodes} nodes, need >= 16")
    x = grid.points
    nrm = grid.normals
    w = grid.weights
    n = grid.n_nodes
    scale = float(np.max(np.ptp(x, axis=0)))
    reps = _row_nodes(grid)
    kmat = np.empty((reps.size, n))
    smat = np.empty((reps.size, n))
    diam = _cell_diameters(grid)
    comp_id = np.empty(n, dtype=int)
    for k, c in enumerate(grid.components):
        comp_id[c.slice] = k
    pairs, cross = [], None
    step = _block_rows(n)
    for r0 in range(0, reps.size, step):
        block = slice(r0, r0 + step)
        rows = reps[block]
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
        kmat[block] = (num / (FOUR_PI * rr ** 3)) * w[None, :]
        del num
        smat[block] = -(1.0 / (FOUR_PI * rr)) * w[None, :]
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
        touch = rr[bi, jj] < TOUCH_RADIUS_CELLS * half[bi, jj]
        pairs.append((r0 + bi, jj, touch))
    # cross-chart cell integrals are not supported, so such grids cannot be
    # assembled accurately; raised only now so that coincident nodes in any
    # row block are reported first
    if cross is not None:
        raise GridError(
            f"nodes {cross[0]} and {cross[1]} of different components "
            f"are closer than the near-field correction radius; "
            f"separate the components or refine the grids")
    # near pairs (i, j) = (reps[ri], jj)
    ri, jj, touch = (np.concatenate(p) for p in zip(*pairs))
    ii = reps[ri]
    # near pair (i, j) needs I_ij over cell j from x_i, taken over a row
    # node's cell (_row_cell_sources), and I_ji over cell i from x_j; one
    # task per distinct (cell, source), subdivided if either pair touches
    cells, sources = _row_cell_sources(grid, ii, jj)
    keys, task = np.unique(np.concatenate([cells * n + sources, ii * n + jj]),
                           return_inverse=True)
    cells, sources = np.divmod(keys, n)
    sub = np.zeros(keys.size, dtype=bool)
    sub[task[np.concatenate([touch, touch])]] = True
    i_s = np.empty(keys.size)
    i_k = np.empty(keys.size)
    for comp in grid.components:
        in_comp = (cells >= comp.start) & (cells < comp.stop)
        for mask, nsub in ((~sub, 1), (sub, CELL_SUBDIV)):
            pick = np.flatnonzero(in_comp & mask)
            if pick.size:
                i_s[pick], i_k[pick] = _cell_kernel_integrals(
                    grid, comp, sources[pick], cells[pick], CELL_QUAD, nsub)
    fwd, bwd = task[:ii.size], task[ii.size:]
    kmat[ri, jj] = i_k[fwd]
    smat[ri, jj] = -0.5 * (i_s[fwd] + i_s[bwd] * (w[jj] / w[ii]))
    diag = (np.arange(reps.size), reps)
    smat[diag] = -_self_cell_single_layer(grid, reps)
    kmat[diag] = 0.0
    # row-sum diagonal: the double layer maps constants to 1/2 exactly; K is
    # checked first, since the sum would spread a fault to the diagonal
    _check_finite("double-layer", kmat, reps)
    kmat[diag] = 0.5 - kmat.sum(axis=1)
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


def _spectral_norm(blocks) -> float:
    """Largest singular value of blockdiag(blocks), the largest block norm.

    Each entry of ``blocks`` is one matrix or a (b, r, c) stack of b
    matrices of one shape.  One ARPACK Lanczos run on the Gram operator of
    the block diagonal from a seeded start: its matvec applies
    M^T (M v_M) to the slice v_M of each matrix, one batched ``matmul``
    pair per stack, so a list of stacks costs one run, not one per block.
    ARPACK takes neither a 1 x 1 nor a zero operator; a block diagonal of
    one column or zero has rank at most 1, so its Frobenius norm is exact.
    """
    # imported here, since only the report diagnostics need scipy.sparse
    from scipy.sparse.linalg import LinearOperator, eigsh
    stacks = [m.reshape(-1, *m.shape[-2:]) for m in blocks]
    widths = [m.shape[0] * m.shape[2] for m in stacks]
    ends = np.cumsum(widths)
    starts = ends - widths
    n = int(ends[-1])
    if n == 1 or not any(m.any() for m in stacks):
        return float(max(np.linalg.norm(m) for m in stacks))

    def matvec(v):
        return np.concatenate([
            np.matmul(np.swapaxes(m, 1, 2),
                      np.matmul(m, v[lo:hi].reshape(len(m), -1, 1))).ravel()
            for m, lo, hi in zip(stacks, starts, ends)])

    gram = LinearOperator((n, n), matvec=matvec, dtype=stacks[0].dtype)
    v0 = np.random.default_rng(0).standard_normal(n)
    return float(np.sqrt(eigsh(gram, k=1, v0=v0,
                               return_eigenvectors=False)[0]))


def _commutator(k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """S K^T - K S for a symmetric S, from the one product K S; ``k`` and
    ``s`` are matrices or stacks of them."""
    ks = np.matmul(k, s)
    return np.swapaxes(ks, -1, -2) - ks


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
    k, s = k_op.matrix, s_op.matrix
    return _spectral_norm([_commutator(k, s)]) / (_spectral_norm([k])
                                                  * _spectral_norm([s]))


def _factor_neg_s(s: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors L_b of -S_b = L_b L_b^T for a (b, m, m)
    stack of S_b, as one new (b, m, m) array.

    Each -S_b is factored in place by LAPACK ``dpotrf`` on the Fortran
    view of its C-ordered block, whose upper triangle is the block's
    lower one, so that no array beyond the factors is made.

    Raises
    ------
    NotPositiveDefinite
        If a factorization fails, that is, some -S_b is not positive
        definite, the first in block order.
    """
    lower = np.negative(s)
    for low in lower:
        # the upper factor U of the Fortran view is L^T, so the C-ordered
        # block ends up holding L, its upper triangle zeroed
        info = dpotrf(low.T, lower=0, clean=1, overwrite_a=1)[1]
        if info:
            raise NotPositiveDefinite(
                f"Cholesky factorization of -S failed (leading minor "
                f"{info} is not positive); refine the grid")
    return lower


def _cholesky_similarity(k: np.ndarray, s: np.ndarray):
    """The smallest and the largest eigenvalue of the -S_b of a stack, the
    descending singular values of its K_b, and the stack of the
    L_b^-1 K_b L_b, for -S_b = L_b L_b^T.

    The -S_b and the Gram matrices K_b^T K_b are written into one
    (2b, m, m) array and take one ``eigvalsh``: numpy holds the GIL
    through an eigensolve of a stack whose matrix count times m is at
    most 500, so a single block of 400 rows would otherwise keep the
    pool's other worker waiting.  The largest eigenvalue of a positive
    definite -S_b is the norm of S_b, and the singular values of K_b are
    the square roots of its Gram eigenvalues, clipped at 0; squaring
    loses accuracy only for singular values near sqrt(eps) ||K_b||.  The
    array is freed before the factors are formed (``_factor_neg_s``, one
    in-place LAPACK ``dpotrf`` per block, as for a study's counts).  Only
    the results outlive the call, not -S_b or its factors.

    Raises
    ------
    NotPositiveDefinite
        If some -S_b has a nonpositive eigenvalue, the first in block
        order, or its Cholesky factorization fails (``_factor_neg_s``).
    """
    b = len(k)
    both = np.empty((2 * b, *k.shape[1:]))
    np.negative(s, out=both[:b])
    np.matmul(np.swapaxes(k, 1, 2), k, out=both[b:])
    eigs = np.linalg.eigvalsh(both)
    del both
    neg, gram = eigs[:b], eigs[b:]
    bad = np.flatnonzero(neg[:, 0] <= 0.0)
    if bad.size:
        raise NotPositiveDefinite(
            f"-S has min eigenvalue {neg[bad[0], 0]:.3e}; refine the grid")
    lower = _factor_neg_s(s)
    kt = np.matmul(k, lower)
    for x, low in zip(kt, lower):
        # L X = K L solved as X^T L^T = (K L)^T: the transposes of the
        # C-ordered x and low are Fortran-ordered, so dtrsm works in the
        # storage of x
        dtrsm(1.0, low.T, x.T, side=1, overwrite_b=1)
    return (float(neg[:, 0].min()), float(neg[:, -1].max()),
            np.sqrt(np.clip(gram, 0.0, None))[:, ::-1], kt)


def _half_sum(kt: np.ndarray, sign: float) -> np.ndarray:
    """(kt + sign kt^T) / 2 for each matrix of the stack ``kt``: its
    symmetric part for sign 1, its skew part for sign -1, in one array."""
    out = np.swapaxes(kt, 1, 2) * sign
    out += kt
    out *= 0.5
    return out


def _plemelj_symmetrize(batch):
    """Plemelj symmetrization of a batch of weighted_l2 (K, S) stacks of
    blocks (K_b, S_b), the eigenvalues and singular values of each block,
    and the norms of their block diagonal.

    The batch is a list of (b, m, m) stack pairs (``_batches``).  It
    first takes the commutator norm, while no similarity array is alive.
    Then each dense step is one numpy call per stack
    (``_cholesky_similarity``): one ``eigvalsh`` of the -S_b and the
    K_b^T K_b together, a stack of 2b matrices, so that numpy releases
    the GIL even for a stack of one block; it gives the smallest
    eigenvalue of each -S_b and the largest, the norm of S_b, and the
    singular values of the K_b; one ``matmul`` K_b L_b; then one
    ``eigvalsh`` of the sym(L_b^-1 K_b L_b).  The factors
    -S_b = L_b L_b^T, taken in place, and the triangular solves
    L_b^-1 (K_b L_b) are one LAPACK ``dpotrf`` and one BLAS ``dtrsm``
    per block.  Stacks go in block order, so the first block whose -S_b
    has a nonpositive eigenvalue raises, else the first block whose
    factorization fails.

    Returns the list of the ascending eigenvalues of the sym_b, as one
    (b, m) array per stack, the list of the descending singular values of
    the K_b, likewise, the list of the sym_b stacks, exactly symmetric,
    and one tuple of the numbers the diagnostics merge from: the smallest
    eigenvalue of the -S_b, the exact Lanczos norms (``_spectral_norm``)
    of the block diagonals of the discarded skew parts and of the
    commutators S_b K_b^T - K_b S_b, and the largest eigenvalue of the
    -S_b, which is the norm of the block diagonal of the S_b.  That is two
    Lanczos runs per batch, whatever its number of blocks; the norms of
    the K_b and of the sym_b are read off their spectra
    (``_merge_diagnostics``).  The batch holds its blocks' commutators,
    L_b^-1 K_b L_b and skew parts only until their norms are taken.
    This is Plemelj's symmetrization: S is symmetric and S K^T = K S, so
    L^-1 K L is symmetric for the continuous operators.  Its spectrum is
    that of K; another factor of -S (such as its square root) changes the
    result only by an orthogonal similarity.  ``_symmetrize_blocks`` calls
    it once per batch.

    Raises
    ------
    NotPositiveDefinite
        If some -S_b has a nonpositive eigenvalue or its Cholesky
        factorization fails.
    """
    resid = _spectral_norm([_commutator(k, s) for k, s in batch])
    min_eigs, s_norms, svals, kts = zip(*(_cholesky_similarity(k, s)
                                          for k, s in batch))
    skew_norm = _spectral_norm([_half_sum(kt, -1.0) for kt in kts])
    syms = [_half_sum(kt, 1.0) for kt in kts]
    del kts
    return ([np.linalg.eigvalsh(sym) for sym in syms], list(svals), syms,
            (min(min_eigs), skew_norm, resid, max(s_norms)))


def _merge_diagnostics(norms, eigs, singular_values) -> dict:
    """Diagnostics of a block-diagonal operator from the norms of its
    batches of blocks (``_plemelj_symmetrize``) and the sorted unions of
    its block eigenvalues and singular values, both descending.

    The spectral norm of an orthogonally block-diagonal matrix is the
    largest block norm and its smallest eigenvalue the smallest block one,
    so ||K|| is the first singular value and ||sym|| the largest
    |eigenvalue|.  ``asymmetry_norm`` is max ||skew_b|| / ||sym||, so
    that it times the largest |eigenvalue| is the Bauer & Fike bound
    max ||skew_b|| on the distance of the raw eigenvalues from the
    symmetrized ones.
    """
    min_eig, skew, resid, s_norm = (np.array(col) for col in zip(*norms))
    return {
        "min_eig_negS": float(min_eig.min()),
        "asymmetry_norm": float(skew.max() / max(eigs[0], -eigs[-1])),
        "plemelj_residual": float(
            resid.max() / (singular_values[0] * s_norm.max())),
    }


# ------------------------------------------------------------------ blocks
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


def _character_blocks(arrays, perms):
    """Blocks B_chi[a, b] = sum_h chi(h) A[r_a, h r_b] / sqrt(st_a st_b)
    of operators A that commute with the group ``perms``.

    ``arrays`` holds the rows A[:, r_a, :] of each operator at the m
    orbit representatives r_a (``_orbits``), an array (b, m, n) of b
    stacked matrices, from which each group element h gathers the columns
    h r_b.  Returns one tuple of blocks, one per operator, per character
    with a nonempty block, in character order, each block a C-contiguous
    (b, m_chi, m_chi) array cut from the character sum in one gather and
    scaled in place (``_split_blocks``).
    """
    reps, chi, valid, stab = _orbits(perms)
    scale = 1.0 / np.sqrt(stab)
    projected = [_character_sums([a[..., c] for c in perms[:, reps]], chi)
                 for a in arrays]
    blocks = []
    for c, pick in enumerate(valid):
        if pick.any():
            i = np.flatnonzero(pick)
            f = np.outer(scale[i], scale[i])
            pair = tuple(p[c][np.ix_(np.arange(len(p[c])), i, i)]
                         for p in projected)
            for block in pair:
                block *= f
            blocks.append(pair)
    return blocks


def _character_rows(blocks, perms) -> np.ndarray:
    """Representative rows of Q blockdiag(blocks) Q^T, the inverse of
    ``_character_blocks``.

    ``blocks`` are the nonempty characters' (..., m_chi, m_chi) blocks of
    the group ``perms``, in character order, with one leading shape.  The
    matrix M commutes with the permutations, so its rows at the orbit
    representatives determine it: M[r_a, g r_b] = sum_chi chi(g)
    B_chi[a, b] / sqrt(o_a o_b), with o = |G| / st the orbit sizes.
    Returns them as one (..., m, n) array, built one group element g at
    a time, so that one character sum is alive at once.
    """
    reps, chi, valid, stab = _orbits(perms)
    m, n = reps.size, perms.shape[1]
    lead = blocks[0].shape[:-2]
    scale = np.sqrt(stab / perms.shape[0])
    blocks = iter(blocks)
    padded = []
    for pick in valid:
        p = np.zeros(lead + (m, m))
        if pick.any():
            p[(..., *np.ix_(pick, pick))] = next(blocks) * np.outer(
                scale[pick], scale[pick])
        padded.append(p)
    rows = np.empty(lead + (m, n))
    for h, cols in enumerate(perms[:, reps]):
        rows[..., cols] = _character_sums(padded, chi.T[h:h + 1])[0]
    return rows


def _mode_multiplicities(n_v: int) -> np.ndarray:
    """Multiplicity of the modes m = 0 .. n_v // 2 of ``_split_blocks``.

    One for m = 0 and, at even n_v, for m = n_v / 2; two for every other
    mode, whose cosine and sine vectors share one block.  At period 1 the
    one mode m = 0 is the whole matrix, of multiplicity 1.
    """
    mult = np.full(n_v // 2 + 1, 2)
    mult[0] = 1
    if n_v % 2 == 0:
        mult[-1] = 1
    return mult


def _join_rows(grid: QuadratureGrid, stacks) -> np.ndarray:
    """Rows of Q blockdiag(blocks) Q^T (``_split_blocks``) at the row
    nodes ``_row_nodes``, the blocks given as (b, m, m) stacks in block
    order, slices of the characters' stacks of the modes.

    Each character's modes, the slices that hold them (a slice that is a
    whole character, as every slice at period 1, is not copied), join
    into the rows of the representatives of the row mirrors' table
    (``_character_rows``).  At period 1, a grid without the turn, the one
    mode is the matrix, and these are its rows; the other rows are
    permuted copies, M[h r_a, j] = M[r_a, h j].  On a grid with the turn,
    M[(a, 0), (b, d)] = sum_m c_m cos(2 pi m d / n_v) B_m[a, b] / n_v is
    the ``irfft`` (n = n_v) along the mode axis of the held rows only,
    averaged with M[(b, 0), (a, -d)], its mirror image.  An exactly
    symmetric B_m gives the same ``irfft`` input for (b, a) as for
    (a, b), and ``irfft`` the same bits for the same input in another
    row, so that average is (y[d] + y[-d]) / 2 of the row's own y, and
    an exactly symmetric set of blocks gives an exactly symmetric matrix.
    The other rows follow by the row mirrors and the turn
    (``_fill_turns``).  On a grid without mirrors or turn the single
    block is the whole matrix and is returned itself, a view of its stack
    of one.  Joined when a symmetrized operator's ``rows`` is read.
    """
    if stacks[0].shape[-1] == grid.n_nodes:
        return stacks[0][0]
    _, table, n_v = _row_mirrors(grid)
    n_modes, chars, run = n_v // 2 + 1, [], []
    for stack in stacks:
        run.append(stack)
        if sum(map(len, run)) == n_modes:
            chars.append(run[0] if len(run) == 1 else np.concatenate(run))
            run = []
    rows = _character_rows(chars, table)
    if n_v == 1:
        return rows[0]
    rows = np.fft.irfft(np.moveaxis(rows, 0, -1), n=n_v, axis=-1)
    rows += rows[..., -np.arange(n_v) % n_v]
    rows *= 0.5
    return rows.reshape(rows.shape[0], -1)


def _split_blocks(grid: QuadratureGrid, k: np.ndarray, s: np.ndarray):
    """Blocks of K_w and S_w from their held rows, as a list of (K, S)
    stacks, and the multiplicity of each block.

    ``k`` and ``s`` are the nystrom-basis rows of ``assemble_operators``
    (``DiscreteOperator.rows``), those of the meridian nodes
    ``_row_nodes``, and this is where their entries change basis: they
    are converted to the weighted_l2 basis in place.  K_w and S_w commute
    with the turn (a, e) -> (a, e + 1) of the grid's n_u x n_v nodes and
    with the y-mirror (a, e) -> (a, -e), so A_w[(a, 0), (b, d)] is even
    in d and in the orthonormal real basis
    sqrt(c_m / n_v) cos(2 pi m e / n_v) e_(b, e) (and the sines for
    0 < m < n_v / 2), c_m the multiplicity of mode m
    (``_mode_multiplicities``), both are block diagonal with the real
    n_u x n_u blocks

        B_m[a, b] = sum_d cos(2 pi m d / n_v) A_w[(a, 0), (b, d)],

    the real part of one ``rfft`` along d of the rows as (rows, n_u, n_v),
    for the modes m = 0 .. n_v // 2.  The row mirrors (``_row_mirrors``),
    a product G of Z2 factors, commute with the turn and the y-mirror, so
    B_m[P a, P b] = B_m[a, b] for each of their meridian permutations P,
    and in the orthonormal basis
    q_{chi,a} = sum_h chi(h) e_{h r_a} / (st_a sqrt(|G| / st_a)) of a
    character chi of G (r_a an orbit representative whose stabilizer, of
    order st_a, chi is +1 on) each B_m splits into the blocks

        B_m,chi[a, b] = sum_h chi(h) B_m[r_a, h r_b] / sqrt(st_a st_b)

    (``_character_blocks``): on a surface of revolution an even and an
    odd block of the z-mirror, where the grid keeps it.  A grid without
    the turn is the turn of period 1, whose one mode is B_0 = A_w itself,
    with no transform, split by all the grid's mirrors: each block entry
    gathers from the row of r_a, |G| gathers of m x m entries for m
    orbits, about n^2 / |G| in all.

    Returns one (K, S) stack pair per nonempty character, in character
    order, each two contiguous (modes, m, m) arrays of the modes in mode
    order, and the multiplicity c_m of each block, 1 for every block at
    period 1.  On a grid without mirrors or turn the rows are the whole
    matrices, and the single pair holds views of K_w and S_w, the arrays
    ``k`` and ``s`` themselves.
    """
    _, table, n_v = _row_mirrors(grid)
    sw = np.sqrt(grid.weights)
    nodes = _row_nodes(grid)
    for a in (k, s):
        a *= sw[nodes, None]
        a /= sw[None, :]
    if k.shape[0] == grid.n_nodes:
        stacks = [(k[None], s[None])]
    else:
        n_u = table.shape[1]
        stacks = _character_blocks(
            [np.moveaxis(np.fft.rfft(a.reshape(nodes.size, n_u, n_v),
                                     axis=-1).real, -1, 0)
             if n_v > 1 else a[None] for a in (k, s)], table)
    return stacks, np.tile(_mode_multiplicities(n_v), len(stacks))


def _block_names(grid: QuadratureGrid, stacks) -> list:
    """The name of each block of the split ``stacks`` (``_split_blocks``),
    in block order, for the message of a block that is not positive
    definite: ``mode m even`` and ``mode m odd`` on a grid with the turn
    and the z-mirror, ``mode m`` on a grid with the turn alone, otherwise
    ``mirror character i``, the nonempty characters counted from 0."""
    if _row_mirrors(grid)[2] == 1:
        return [f"mirror character {i}" for i in range(len(stacks))]
    parities = [""] if len(stacks) == 1 else [" even", " odd"]
    return [f"mode {m}{parity}"
            for parity, (k, _) in zip(parities, stacks)
            for m in range(len(k))]


def _sorted_union(batches, mult):
    """All values of ``batches``, each repeated by the multiplicity of its
    block, sorted descending.

    ``batches`` holds one list per batch, as ``_map_blocks`` returns them,
    of one (b, m) array per stack of the batch (``_batches``), a row of
    values per block."""
    stacks = [stack for batch in batches for stack in batch]
    ends = np.cumsum([len(stack) for stack in stacks])
    return np.sort(np.concatenate([
        np.repeat(stack, m, axis=0).ravel()
        for stack, m in zip(stacks, np.split(mult, ends[:-1]))]))[::-1]


def _batches(stacks) -> list:
    """Consecutive runs of the blocks of the (K, S) ``stacks``, each of at
    most ``_BATCH_ENTRIES`` entries of K in all; a larger block is a run
    of its own.  A run is a list of (K, S) slices of the stacks it draws
    from, in block order, contiguous views that copy no data."""
    batches, entries = [], 0
    for k, s in stacks:
        start = 0
        for i in range(len(k)):
            if batches and entries + k[i].size <= _BATCH_ENTRIES:
                entries += k[i].size
            else:
                if i > start:
                    batches[-1].append((k[start:i], s[start:i]))
                batches.append([])
                start, entries = i, k[i].size
        batches[-1].append((k[start:], s[start:]))
    return batches


def _map_blocks(fn, stacks, names) -> list:
    """``[fn(batch) for batch in _batches(stacks)]``, the batches run side
    by side.

    ``fn`` maps one batch, a list of (K, S) slices of the stacks
    (``_batches``), to its result, so that each Lanczos norm of a batch is
    one run on its block diagonal and each dense step one numpy call per
    slice.  One block, the grid without mirrors or turn, runs inline on
    the process's BLAS threads, since a large dense matrix gains from
    them.  Two or more blocks run with every OpenBLAS build at one thread
    (``_blas.single_threaded``), and their batches on a pool of up to one
    worker thread per usable CPU: blocks of a few hundred rows are faster
    on one thread than on all the CPUs, their values then do not depend
    on the BLAS thread count or the CPU count, and the workers overlap the
    dense work of one batch with that of another.  numpy's ``matmul``
    releases the GIL at every size, its ``eigvalsh`` and ``svd`` only on
    a stack whose matrix count times m exceeds 500, which is why
    ``_cholesky_similarity`` stacks each slice's -S_b and Gram matrices
    into one call; the ``eigvalsh`` of a sym_b of a stack of one, the
    per-block factors and triangular solves, and the Lanczos iterations'
    Python steps hold it.
    A pool that would have one worker, such as for the 50 mode blocks of
    a 24x48 sphere or any level of a peanut study, is not started, which
    also keeps the batch's temporaries out of a worker thread's malloc
    arena.  Results come in batch order.  The first batch in that order
    that fails raises, and batches not yet started are cancelled.  A
    NotPositiveDefinite is named after the first failing block, by its
    entry in ``names``, one per block in block order (``_block_names``):
    on that error path only, a batch of
    several blocks runs again one block at a time, with the same values,
    since each numpy call of a stack treats its blocks one by one.
    """
    batches = _batches(stacks)
    firsts = np.cumsum([0] + [sum(len(k) for k, _ in batch)
                              for batch in batches])

    def run(batch, first):
        try:
            return fn(batch)
        except NotPositiveDefinite as exc:
            blocks = [(k[j:j + 1], s[j:j + 1]) for k, s in batch
                      for j in range(len(k))]
            for i, block in enumerate(blocks, first):
                try:
                    if len(blocks) == 1:
                        raise exc
                    fn([block])
                except NotPositiveDefinite as failure:
                    raise NotPositiveDefinite(f"{names[i]}: {failure}")
            raise

    if firsts[-1] < 2:
        return [run(batch, 0) for batch in batches]
    # imported on first use, so that importing npspectra runs none of it
    from concurrent.futures import ThreadPoolExecutor

    from . import _blas
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(batches), cpus)
    with _blas.single_threaded():
        if workers < 2:
            return list(map(run, batches, firsts))
        with ThreadPoolExecutor(workers) as pool:
            # map cancels the batches not yet started once a result raises
            return list(pool.map(run, batches, firsts))


def _symmetrize_blocks(grid: QuadratureGrid, stacks, mult):
    """Plemelj symmetrization per block: the eigenvalues, the singular
    values of K_w, and the merged operator.

    ``stacks`` and ``mult`` are the (K, S) stacks of ``_split_blocks``
    (one stack pair of the rotation modes per character of the row
    mirrors, at period 1 a stack of one) and the multiplicities of their
    blocks.
    The stacks go to ``_plemelj_symmetrize`` in the batches of
    ``_map_blocks``, slices that copy no data: one pass that symmetrizes
    each slice and takes its ``eigvalsh`` and the singular values of its
    K_b, one numpy call per slice and step, and the skew and commutator
    norms of a batch in one Lanczos run each on its block diagonal.  So
    the 25 even and 25 odd modes of a 24x48 sphere, one batch of two
    slices, cost 2 Lanczos runs and 4 ``eigvalsh`` calls, two of them on
    the 25 -S_b and 25 Gram matrices of a parity, and no ``svd`` call.

    Returns the eigenvalues and the singular values of K_w, the sorted
    unions of the block values (``_sorted_union``), and the ``symmetrized``
    DiscreteOperator Q blockdiag(sym_b) Q^T, held by the stacks of its
    sym_b until its rows are read.  That is the Plemelj symmetrization of
    K_w for the factor Q blockdiag(L_b) Q^T of -S_w (so the symmetrization
    for the Cholesky factor of the whole -S_w differs from it by an
    orthogonal similarity; on a grid with one block the two are the same).
    Diagnostics merge over the batches, whatever the blocks' multiplicity:
    ``min_eig_negS`` is the smallest block value, ``plemelj_residual`` is
    max ||R_b|| / (max ||K_b|| max ||S_b||), and ``asymmetry_norm`` is
    max ||skew_b|| / max ||sym_b||, with max ||K_b|| the first singular
    value and max ||sym_b|| the largest |eigenvalue| (``_merge_diagnostics``).

    Raises
    ------
    NotPositiveDefinite
        If some block of -S is not positive definite; the first such
        block in block order raises, named as in ``_block_names``:
        ``mode m even`` or ``mode m odd`` on a grid with the turn and the
        z-mirror, ``mode m`` on one with the turn alone, else
        ``mirror character i`` (the nonempty ones counted).
    """
    eigs, svals, syms, norms = zip(*_map_blocks(
        _plemelj_symmetrize, stacks, _block_names(grid, stacks)))
    eigs, svals = _sorted_union(eigs, mult), _sorted_union(svals, mult)
    return eigs, svals, DiscreteOperator(
        None, basis="symmetrized", grid=grid,
        diagnostics=_merge_diagnostics(norms, eigs, svals),
        stacks=[stack for batch in syms for stack in batch])


# ------------------------------------------------------------------ binary dump
def _matrix_chunks(op: DiscreteOperator):
    """The rows of ``op.matrix`` in consecutive chunks, without building it.

    Each chunk holds about ``_DUMP_ENTRIES`` entries.  An operator of n
    rows yields slices of ``rows``, with no copy.  Otherwise each chunk is
    gathered from the representative rows (``_row_filler``) into one
    buffer that the next chunk overwrites, with the same sources and the
    same bits as ``op.matrix``.
    """
    rows, n = op.rows, op.n
    step = max(1, _DUMP_ENTRIES // n)
    if rows.shape[0] == n:
        for i0 in range(0, n, step):
            yield rows[i0:i0 + step]
        return
    fill = _row_filler(op)
    buf = np.empty((step, n))
    for i0 in range(0, n, step):
        yield fill(buf[:n - i0], i0)


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

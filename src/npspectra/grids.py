"""Quadrature grids over parametric surfaces.

Periodic directions use equispaced nodes with uniform weights (the
trapezoidal rule, spectrally accurate for smooth periodic integrands).
The polar direction of sphere-type charts uses Gauss-Legendre nodes in
cos(u), so all nodes stay strictly inside (0, pi) and the coordinate poles
are never sampled.  Each node also carries its parameter cell (used for the
singular-quadrature corrections during operator assembly).

A grid also carries the node permutations of its mirror group, found from
its own geometry: of the three coordinate mirrors x -> -x, y -> -y and
z -> -z that the chart kind can express as (u, v) maps, those that send
grid nodes to grid nodes and reflect points, normals, weights and cells,
and all their products.  Operators assembled on the grid commute with
these permutations, so their spectra split into one block per character
of the group (``operators._split_blocks``).

A grid of a surface of revolution about the z axis also records its turn:
the map (u, v) -> (u, v + 2 pi / n_v), kept only if it sends nodes to
nodes, turns points and unit normals about the z axis by 2 pi / n_v, keeps
the weights and shifts the cells, and only on a grid that also keeps the
y-mirror v -> -v.  Operators on such a grid commute with the turn and the
y-mirror, so they split into one real block of n_u x n_u per rotation
mode m = 0 .. n_v // 2 (``operators._split_blocks``), and the z-mirror,
where the grid keeps it, splits each mode block in two by its
characters.  A grid without the turn takes the same split as the turn of
period 1: one mode, the whole matrix, split by all its mirrors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateChart, NumericalError
from .geometry import SurfaceFrame, evaluate_frame, principal_curvatures
from .surfaces import (TWO_PI, ParametricSurface, _chart_on_axes,
                       _tensor_layout)

# largest accepted node count; one dense n x n operator at this size would
# take 2 PiB, so larger counts can only be typing errors
MAX_NODES = 2 ** 24


@dataclass
class GridComponent:
    """One surface of a (possibly multi-component) grid with its node range."""

    surface: ParametricSurface
    n_u: int
    n_v: int
    start: int
    stop: int

    @property
    def slice(self):
        return slice(self.start, self.stop)


@dataclass
class QuadratureGrid:
    """Nodes, weights, and cached frames discretizing a closed surface.

    ``weights`` are area weights: summing them integrates the constant 1 to
    the surface area.  ``cell_u_lo``, ``cell_u_hi`` and ``cell_dv`` bound the
    parameter cell owned by each node.  ``mirrors`` holds the node
    permutations of the mirror group, one row per element: row h composes
    the generating mirrors named by the bits of h, so row 0 is the identity
    and a grid without mirrors has that row only.  ``turn`` is True when
    the turn (u, v) -> (u, v + 2 pi / n_v) and the y-mirror v -> -v both
    map the grid onto itself; only ``build_grid`` sets it, on one
    component.  Node (a, e) of such a grid is a * n_v + e, and the turn
    sends it to (a, e + 1).
    """

    components: list
    u: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    frames: SurfaceFrame
    cell_u_lo: np.ndarray
    cell_u_hi: np.ndarray
    cell_dv: np.ndarray
    k1: np.ndarray = field(default=None, repr=False)
    k2: np.ndarray = field(default=None, repr=False)
    mean_curvature: np.ndarray = field(default=None, repr=False)
    gauss_curvature: np.ndarray = field(default=None, repr=False)
    mirrors: np.ndarray = field(default=None, repr=False)
    turn: bool = False

    def __post_init__(self):
        if self.mirrors is None:
            self.mirrors = np.arange(self.n_nodes)[None, :]
        if self.k1 is None:
            self.k1, self.k2, self.mean_curvature, self.gauss_curvature = \
                principal_curvatures(self.frames)

    @property
    def n_nodes(self) -> int:
        return self.weights.size

    @property
    def resolution(self):
        return (self.components[0].n_u, self.components[0].n_v)

    @property
    def points(self) -> np.ndarray:
        return self.frames.point

    @property
    def normals(self) -> np.ndarray:
        return self.frames.normal


# candidate mirrors of each chart kind, as (u, v) maps in axis order x, y,
# z: the maps that reflect the catalog charts.  Row h of a grid's group
# table composes the candidates kept, named by the bits of h.
_MIRROR_XY = (lambda u, v: (u, np.pi - v), lambda u, v: (u, -v))
_MIRROR_MAPS = {
    "polar": _MIRROR_XY + (lambda u, v: (np.pi - u, v),),
    "biperiodic": _MIRROR_XY + (lambda u, v: (-u, v),),
}

# tolerances of the mirror and turn checks: parameter images off the nodes
# by more than _OFF_NODE periods drop a map; a kept map must reflect (or
# turn) points (relative to the grid extent), unit normals, weights
# (relative) and cell bounds (in periods) to _MIRROR_TOL, or it is dropped
# too.
# Finite-difference charts carry rounding of about eps / FD_STEP ~ 2e-11
# in normals and weights, which are checked to _MIRROR_TOL_FD on them.
_OFF_NODE = 1e-9
_MIRROR_TOL = 1e-12
_MIRROR_TOL_FD = 1e-9


def _node_indices(x, nodes, period):
    """Nearest node of each parameter value, and its distance.

    ``nodes`` are ascending; with a ``period`` they are the equispaced
    ``period * arange(n) / n`` and the values wrap around.
    """
    if period is None:
        j = np.clip(np.searchsorted(nodes, x), 1, nodes.size - 1)
        j -= (x - nodes[j - 1]) < (nodes[j] - x)
        return j, np.abs(x - nodes[j])
    j = np.rint(x * (nodes.size / period))
    return j.astype(int) % nodes.size, np.abs(x - j * (period / nodes.size))


def _bound_defect(a, b, lo, hi, period, unit):
    """Distance, in units of ``unit``, of the range of (a, b) from [lo, hi].

    With a ``period`` the bounds are compared modulo the period.
    """
    def wrap(d):
        return d if period is None else d - period * np.rint(d / period)

    return np.maximum(np.abs(wrap(np.minimum(a, b) - lo)),
                      np.abs(wrap(np.maximum(a, b) - hi))) / unit


def _node_map(surface, grid, u_nodes, v_nodes, fn, linear):
    """Node permutation of a parameter map that moves the grid onto itself.

    ``fn`` maps (u, v) to (u, v) and ``linear`` is the orthogonal 3 x 3
    matrix it should apply to points and unit normals.  Returns the
    permutation perm with node perm[i] the image of node i, or None if some
    parameter image is off the nodes by more than _OFF_NODE periods, or if
    the images of the points (relative to the grid extent), unit normals,
    weights (relative) or parameter cells (in periods) miss their nodes'
    by more than the tolerances.
    """
    n_v = v_nodes.size
    # the polar u-direction is the interval (0, pi); all others wrap at 2 pi
    u_wrap, u_scale = (None, np.pi) if surface.kind == "polar" \
        else (TWO_PI, TWO_PI)
    mu, mv = fn(grid.u, grid.v)
    iu, du = _node_indices(mu, u_nodes, u_wrap)
    iv, dv = _node_indices(mv, v_nodes, TWO_PI)
    if max(du.max() / u_scale, dv.max() / TWO_PI) > _OFF_NODE:
        return None
    perm = iu * n_v + iv
    x, nrm, w = grid.points, grid.normals, grid.weights
    scale = float(np.max(np.ptp(x, axis=0)))
    half = 0.5 * grid.cell_dv
    derived = _MIRROR_TOL if surface.derivative_mode == "analytic" \
        else _MIRROR_TOL_FD
    # image of each node's parameter cell, from two opposite corners
    ua, va = fn(grid.cell_u_lo, grid.v - half)
    ub, vb = fn(grid.cell_u_hi, grid.v + half)
    cell = np.maximum(
        _bound_defect(ua, ub, grid.cell_u_lo[perm], grid.cell_u_hi[perm],
                      u_wrap, u_scale),
        _bound_defect(va, vb, (grid.v - half)[perm], (grid.v + half)[perm],
                      TWO_PI, TWO_PI))
    defects = (
        (np.max(np.abs(x[perm] - x @ linear.T), axis=1) / scale,
         _MIRROR_TOL),
        (np.max(np.abs(nrm[perm] - nrm @ linear.T), axis=1), derived),
        (np.abs(w[perm] - w) / w, derived),
        (cell, _MIRROR_TOL),
    )
    return perm if all(d.max() <= tol for d, tol in defects) else None


def _symmetries(surface, grid, u_nodes, v_nodes):
    """Mirror group and turn of a single-component grid.

    Each candidate mirror of the chart kind (``_MIRROR_MAPS``) that
    ``_node_map`` keeps, as the reflection through its coordinate plane,
    becomes a generator; the others are dropped (``v -> pi - v`` at odd
    ``n_v``, or the z-mirror of an egg-shaped body, for example).  The turn
    ``v -> v + 2 pi / n_v`` is checked as the rotation by 2 pi / n_v about
    the z axis, and only on a grid that keeps the y-mirror ``v -> -v``.
    Returns the group table of ``QuadratureGrid.mirrors`` and whether the
    turn is kept.
    """
    perms = [np.arange(grid.n_nodes)]
    kept = []
    for axis, fn in enumerate(_MIRROR_MAPS[surface.kind]):
        flip = np.ones(3)
        flip[axis] = -1.0
        perm = _node_map(surface, grid, u_nodes, v_nodes, fn, np.diag(flip))
        if perm is not None:
            perms += [perm[p] for p in perms]
            kept.append(axis)
    dv = TWO_PI / v_nodes.size
    c, s = np.cos(dv), np.sin(dv)
    turn = 1 in kept and _node_map(
        surface, grid, u_nodes, v_nodes, lambda u, v: (u, v + dv),
        np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])) is not None
    return np.array(perms), turn


def check_resolution(n_u: int, n_v: int, where: str) -> None:
    """Reject a non-integer resolution, or one below 4 or above MAX_NODES.

    Each direction needs at least 4 nodes, and the grid at most MAX_NODES
    in all.  Python and numpy integers count; ``bool``, floats and
    strings do not, so no resolution is ever rounded or parsed.

    Raises
    ------
    ConfigError
        Naming ``where`` (a JSON pointer, a command-line option or an
        argument).
    """
    for n in (n_u, n_v):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ConfigError(f"{where}: {n_u!r}x{n_v!r} is not a pair of "
                              f"integers ({type(n).__name__})")
    n_u, n_v = int(n_u), int(n_v)
    if n_u < 4 or n_v < 4:
        raise ConfigError(f"{where}: {n_u}x{n_v} too small (need >= 4)")
    if n_u * n_v > MAX_NODES:
        raise ConfigError(f"{where}: {n_u}x{n_v} has more than "
                          f"{MAX_NODES} nodes")


def build_grid(surface: ParametricSurface, n_u: int, n_v: int) -> QuadratureGrid:
    """Build the tensor quadrature grid of a surface.

    Parameters
    ----------
    surface : ParametricSurface
        Surface to discretize.
    n_u, n_v : int
        Node counts per direction, both at least 4, with at most
        ``MAX_NODES`` nodes in all.

    Returns
    -------
    QuadratureGrid
        Grid with positive area weights and cached frames.

    Raises
    ------
    ConfigError
        If ``check_resolution`` rejects the resolution, or if the chart
        does not broadcast its arguments (``surfaces._chart_on_axes``),
        probed on the first two u nodes as a 2 x 1 axis by the first two
        v nodes as a 1 x 2 axis before any frame is evaluated.
    DegenerateChart
        If any node weight fails to be finite and positive.
    """
    check_resolution(n_u, n_v, "grid resolution")
    n_u, n_v = int(n_u), int(n_v)
    u, wu, ulo, uhi, v, dv = _tensor_layout(surface, n_u, n_v)
    _chart_on_axes(surface, u[:2, None], v[None, :2])
    uu = np.repeat(u, n_v)
    vv = np.tile(v, n_u)
    frames = evaluate_frame(surface, uu, vv)
    weights = np.repeat(wu, n_v) * dv * frames.area_element
    bad = ~(np.isfinite(weights) & (weights > 0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DegenerateChart(
            f"nonpositive quadrature weight at node {i}, "
            f"(u, v) = ({uu[i]:.6g}, {vv[i]:.6g})")
    comp = GridComponent(surface, n_u, n_v, 0, n_u * n_v)
    grid = QuadratureGrid(
        components=[comp], u=uu, v=vv, weights=weights, frames=frames,
        cell_u_lo=np.repeat(ulo, n_v), cell_u_hi=np.repeat(uhi, n_v),
        cell_dv=np.full(n_u * n_v, dv))
    grid.mirrors, grid.turn = _symmetries(surface, grid, u, v)
    return grid


def concatenate_grids(grids: Sequence[QuadratureGrid]) -> QuadratureGrid:
    """Join grids over disjoint surfaces into one multi-component grid.

    The joined grid keeps no mirrors and no turn: a mirror or turn of one
    component need not map the others onto themselves.
    """
    grids = list(grids)
    if not grids:
        raise ConfigError("need at least one grid")
    components = []
    offset = 0
    for g in grids:
        for c in g.components:
            components.append(GridComponent(
                c.surface, c.n_u, c.n_v, c.start + offset, c.stop + offset))
        offset += g.n_nodes
    cat = np.concatenate
    frames = SurfaceFrame(
        point=cat([g.frames.point for g in grids]),
        normal=cat([g.frames.normal for g in grids]),
        E=cat([g.frames.E for g in grids]),
        F=cat([g.frames.F for g in grids]),
        G=cat([g.frames.G for g in grids]),
        L=cat([g.frames.L for g in grids]),
        M=cat([g.frames.M for g in grids]),
        N=cat([g.frames.N for g in grids]),
        area_element=cat([g.frames.area_element for g in grids]))
    return QuadratureGrid(
        components=components,
        u=cat([g.u for g in grids]), v=cat([g.v for g in grids]),
        weights=cat([g.weights for g in grids]), frames=frames,
        cell_u_lo=cat([g.cell_u_lo for g in grids]),
        cell_u_hi=cat([g.cell_u_hi for g in grids]),
        cell_dv=cat([g.cell_dv for g in grids]))


def surface_integral(grid: QuadratureGrid, f) -> float:
    """Integrate a scalar field over the surface.

    Parameters
    ----------
    grid : QuadratureGrid
        Quadrature rule supplying nodes and weights.
    f : callable or ndarray
        Either per-node values of shape (n_nodes,) or a callable taking the
        grid's cached frames and returning such values.

    Returns
    -------
    float
        Sum of f at the nodes against the area weights.

    Raises
    ------
    NumericalError
        If any integrand value is not finite, naming the node.
    """
    vals = f(grid.frames) if callable(f) else np.asarray(f, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (grid.n_nodes,):
        raise ConfigError(
            f"integrand has shape {vals.shape}, expected ({grid.n_nodes},)")
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.argmax(~finite))
        raise NumericalError(
            f"non-finite integrand value {vals[i]} at node {i}, "
            f"(u, v) = ({grid.u[i]:.6g}, {grid.v[i]:.6g})")
    return float(np.dot(vals, grid.weights))

"""Quadrature grids over parametric surfaces.

Periodic directions use equispaced nodes with uniform weights (the
trapezoidal rule, spectrally accurate for smooth periodic integrands).
The polar direction of sphere-type charts uses Gauss-Legendre nodes in
cos(u), so all nodes stay strictly inside (0, pi) and the coordinate poles
are never sampled.  Each node also carries its parameter cell (used for the
singular-quadrature corrections during operator assembly).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateChart, NumericalError
from .geometry import SurfaceFrame, evaluate_frame, principal_curvatures
from .surfaces import ParametricSurface


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
    parameter cell owned by each node.
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

    def __post_init__(self):
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


def _polar_layout(n_u):
    # Gauss-Legendre in t = cos(u); cell edges split [-1, 1] by the
    # cumulative weights so each node owns a cell containing it.
    t, wt = np.polynomial.legendre.leggauss(n_u)
    u = np.arccos(t)[::-1]
    wq = wt[::-1]
    edges_t = np.concatenate([[1.0], 1.0 - np.cumsum(wq)])
    # the weights sum to 2 only up to rounding, which arccos would
    # amplify to sqrt(eps) at the closing edge; pin it exactly
    edges_t[-1] = -1.0
    edges = np.arccos(np.clip(edges_t, -1.0, 1.0))
    # du-weight: the GL rule integrates dt = sin(u) du
    return u, wq / np.sin(u), edges[:-1], edges[1:]


def build_grid(surface: ParametricSurface, n_u: int, n_v: int) -> QuadratureGrid:
    """Build the tensor quadrature grid of a surface.

    Parameters
    ----------
    surface : ParametricSurface
        Surface to discretize.
    n_u, n_v : int
        Node counts per direction, both at least 4.

    Returns
    -------
    QuadratureGrid
        Grid with positive area weights and cached frames.

    Raises
    ------
    ConfigError
        If a direction has fewer than 4 nodes.
    DegenerateChart
        If any node weight fails to be finite and positive.
    """
    n_u, n_v = int(n_u), int(n_v)
    if n_u < 4 or n_v < 4:
        raise ConfigError(f"grid resolution {n_u}x{n_v} too small (need >= 4)")
    if surface.kind == "polar":
        u, wu, ulo, uhi = _polar_layout(n_u)
    else:
        period = surface.u_period
        du = period / n_u
        u = du * np.arange(n_u)
        wu = np.full(n_u, du)
        ulo, uhi = u - du / 2, u + du / 2
    dv = surface.v_period / n_v
    v = dv * np.arange(n_v)
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
    return QuadratureGrid(
        components=[comp], u=uu, v=vv, weights=weights, frames=frames,
        cell_u_lo=np.repeat(ulo, n_v), cell_u_hi=np.repeat(uhi, n_v),
        cell_dv=np.full(n_u * n_v, dv))


def concatenate_grids(grids: Sequence[QuadratureGrid]) -> QuadratureGrid:
    """Join grids over disjoint surfaces into one multi-component grid."""
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

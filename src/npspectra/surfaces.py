"""Smooth closed parametric surfaces: catalog, Mobius inversion, rigid motion.

Every surface is described by a single chart (u, v) -> R^3 of a kind that
fixes its domain and, for the catalog shapes, analytic first and second
derivatives.  "polar" charts cover sphere-like surfaces with u in (0, pi)
and coordinate poles at the interval ends; "biperiodic" charts cover
torus-like surfaces.  Every periodic direction has period 2 pi.  The
catalog's sphere and spheroid are aliases of its ellipsoid.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import (ConfigError, DegenerateChart, DomainError, GridError,
                     SingularInversion)

TWO_PI = 2.0 * np.pi
# central-difference step, in parameter units, of finite-difference charts
FD_STEP = 1e-5
# Gauss-Newton steps refining the nearest probe to an inversion center
_NEWTON_STEPS = 6

PositionMap = Callable[[np.ndarray, np.ndarray], np.ndarray]
FirstDerivatives = Callable[[np.ndarray, np.ndarray], tuple]
SecondDerivatives = Callable[[np.ndarray, np.ndarray], tuple]

# the package's own errors, which a chart may raise and which keep their type
_OWN_ERRORS = (ConfigError, DegenerateChart, DomainError, GridError,
               SingularInversion)


class ParametricSurface:
    """A closed surface given by one chart with optional analytic derivatives.

    Parameters
    ----------
    position : callable
        Map ``(u, v) -> points``; must accept broadcastable arguments,
        returning their broadcast shape + (3,).  Assembly passes the nodes
        of a quadrature panel as the axes ``u[:, :, None]`` and
        ``v[:, None, :]``, so a term of u alone is evaluated once per u.
    d1 : callable, optional
        Analytic first derivatives ``(u, v) -> (x_u, x_v)``, with the same
        broadcasting contract.
    d2 : callable, optional
        Analytic second derivatives ``(u, v) -> (x_uu, x_uv, x_vv)``, with
        the same broadcasting contract.
    kind : str
        ``"polar"`` (u in (0, pi)) or ``"biperiodic"`` (u of period
        2 pi).  The kind fixes the parameter domain; v has period 2 pi
        on both.
    name : str
        Display name used in configs and reports.
    params : dict
        Parameter map echoed into reports.
    derivative_mode : str, optional
        ``"analytic"`` or ``"finite_difference"``.  Defaults to analytic
        when both derivative callables are supplied.  Finite differences
        are central with step ``FD_STEP`` in parameter units.

    A surface declares no symmetries: ``grids.build_grid`` finds the
    coordinate mirrors and the turn about the z axis of each grid from its
    chart kind and geometry.
    """

    def __init__(self, position, d1=None, d2=None, *, kind,
                 name="surface", params=None, derivative_mode=None):
        if kind not in ("polar", "biperiodic"):
            raise ConfigError(f"unknown chart kind {kind!r}")
        if derivative_mode is None:
            derivative_mode = "analytic" if (d1 is not None and d2 is not None) \
                else "finite_difference"
        if derivative_mode not in ("analytic", "finite_difference"):
            raise ConfigError(f"unknown derivative_mode {derivative_mode!r}")
        if derivative_mode == "analytic" and (d1 is None or d2 is None):
            raise ConfigError("analytic derivative_mode requires d1 and d2")
        self.position = position
        self._d1 = d1
        self._d2 = d2
        self.kind = kind
        self.name = name
        self.params = dict(params or {})
        self.derivative_mode = derivative_mode
        self._orientation_sign = None

    # ------------------------------------------------------------- derivatives
    def first_derivatives(self, u, v):
        """Return (x_u, x_v) honoring the declared derivative mode."""
        if self.derivative_mode == "analytic":
            return self._d1(u, v)
        h = FD_STEP
        xu = (self.position(u + h, v) - self.position(u - h, v)) / (2 * h)
        xv = (self.position(u, v + h) - self.position(u, v - h)) / (2 * h)
        return xu, xv

    def second_derivatives(self, u, v):
        """Return (x_uu, x_uv, x_vv) honoring the declared derivative mode.

        In finite-difference mode the second derivatives are central
        differences of the first-derivative map; when the surface carries
        analytic first derivatives those are differenced, which keeps the
        rounding error at the O(h^2) truncation level.
        """
        if self.derivative_mode == "analytic":
            return self._d2(u, v)
        d1 = self._d1 if self._d1 is not None else self.first_derivatives
        h = FD_STEP
        xu_up, _ = d1(u + h, v)
        xu_um, _ = d1(u - h, v)
        xu_vp, xv_vp = d1(u, v + h)
        xu_vm, xv_vm = d1(u, v - h)
        xuu = (xu_up - xu_um) / (2 * h)
        xuv = (xu_vp - xu_vm) / (2 * h)
        xvv = (xv_vp - xv_vm) / (2 * h)
        return xuu, xuv, xvv

    def with_derivative_mode(self, mode):
        """Clone this surface with a different derivative mode."""
        clone = ParametricSurface(
            self.position, self._d1, self._d2, kind=self.kind, name=self.name,
            params=self.params, derivative_mode=mode)
        clone._orientation_sign = self._orientation_sign
        return clone

    # ------------------------------------------------------------- orientation
    def _probe_nodes(self, n_u, n_v):
        u, wu, _, _, v, dv = _tensor_layout(self, n_u, n_v)
        return np.repeat(u, n_v), np.tile(v, n_u), np.repeat(wu, n_v) * dv

    def orientation_sign(self):
        """Global normal-direction sign making chart normals point outward.

        The raw normal is x_u cross x_v.  The sign is fixed once per surface
        by requiring that at the node farthest from the area centroid the
        normal points away from the centroid; for embedded closed surfaces
        the farthest point always faces outward.
        """
        if self._orientation_sign is None:
            u, v, wpar = self._probe_nodes(32, 48)
            x = self.position(u, v)
            xu, xv = self.first_derivatives(u, v)
            cr = np.cross(xu, xv)
            jac = np.sqrt(np.sum(cr * cr, axis=-1))
            w = wpar * jac
            cent = np.sum(x * w[:, None], axis=0) / np.sum(w)
            i_far = int(np.argmax(np.sum((x - cent) ** 2, axis=-1)))
            dot = float(np.dot(cr[i_far] / jac[i_far], x[i_far] - cent))
            self._orientation_sign = 1.0 if dot >= 0 else -1.0
        return self._orientation_sign


@functools.cache
def _gauss_legendre(q: int):
    """Nodes and weights of the q-point Gauss-Legendre rule on [-1, 1].

    ``np.polynomial.legendre.leggauss(q)``, computed once per q and shared
    by every caller, so both arrays are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(q)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _tensor_layout(surface, n_u, n_v):
    """Node layout of the tensor rule in each parameter direction.

    The polar direction of a "polar" chart takes Gauss-Legendre nodes in
    t = cos(u), so no node sits on a coordinate pole; periodic directions
    take equispaced nodes with uniform weights.  Returns the u nodes, their
    du-weights and parameter cell bounds (lo, hi), the v nodes and their
    spacing dv.
    """
    if surface.kind == "polar":
        t, wt = _gauss_legendre(n_u)
        u = np.arccos(t)[::-1]
        wq = wt[::-1]
        # cell edges split [-1, 1] by the cumulative weights, so each node
        # owns a cell containing it; the weights sum to 2 only up to
        # rounding, which arccos would amplify to sqrt(eps) at the closing
        # edge, so that edge is pinned exactly
        edges_t = np.concatenate([[1.0], 1.0 - np.cumsum(wq)])
        edges_t[-1] = -1.0
        edges = np.arccos(np.clip(edges_t, -1.0, 1.0))
        # du-weight: the GL rule integrates dt = sin(u) du
        wu, ulo, uhi = wq / np.sin(u), edges[:-1], edges[1:]
    else:
        du = TWO_PI / n_u
        u = du * np.arange(n_u)
        wu = np.full(n_u, du)
        ulo, uhi = u - du / 2, u + du / 2
    dv = TWO_PI / n_v
    return u, wu, ulo, uhi, dv * np.arange(n_v), dv


def _not_broadcast(surf, uu, vv, what: str) -> ConfigError:
    """The error for a chart that broke its contract on tensor axes."""
    shape = np.broadcast_shapes(uu.shape, vv.shape)
    return ConfigError(
        f"the chart of surface {surf.name!r} {what} on u of shape "
        f"{uu.shape} and v of shape {vv.shape}; a chart must accept "
        f"broadcastable arguments and return their broadcast shape + (3,), "
        f"here {(*shape, 3)}")


def _chart_on_axes(surf, uu, vv):
    """Position and first derivatives of a chart on broadcastable axes.

    Returns (x, x_u, x_v), each of the broadcast shape of ``uu`` and
    ``vv`` + (3,).

    Raises
    ------
    ConfigError
        If the chart or its first derivatives fail with a ValueError of
        numpy's, or return another shape: the chart does not broadcast its
        arguments as ``ParametricSurface`` requires.  The package's own
        errors (such as ``DegenerateChart``) pass through unchanged.
    """
    try:
        x = surf.position(uu, vv)
        xu, xv = surf.first_derivatives(uu, vv)
    except _OWN_ERRORS:
        raise
    except ValueError as exc:
        raise _not_broadcast(surf, uu, vv, f"raised {exc}") from exc
    shape = (*np.broadcast_shapes(uu.shape, vv.shape), 3)
    for out in (x, xu, xv):
        if np.shape(out) != shape:
            raise _not_broadcast(surf, uu, vv,
                                 f"returned shape {np.shape(out)}")
    return x, xu, xv


def _vectors(*parts):
    """Vectors from components of broadcastable shapes: that shape + (k,).

    A component may depend on u alone, on v alone, or be a constant; each
    is broadcast, without a copy, to the common shape before stacking.
    """
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


# ------------------------------------------------------------------ catalog
def sphere(r=1.0):
    """Round sphere of radius ``r``; an alias for ellipsoid(r, r, r)."""
    r = float(r)
    if r <= 0:
        raise ConfigError("sphere requires r > 0")
    s = ellipsoid(r, r, r)
    s.name = "sphere"
    s.params = {"r": r}
    return s


def ellipsoid(a, b, c):
    """Axis-aligned ellipsoid with semi-axes ``a, b, c``."""
    a, b, c = float(a), float(b), float(c)
    if min(a, b, c) <= 0:
        raise ConfigError("ellipsoid requires positive semi-axes")

    def fx(u, v):
        su = np.sin(u)
        return _vectors(a * su * np.cos(v), b * su * np.sin(v),
                        c * np.cos(u))

    def d1(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        xu = _vectors(a * cu * cv, b * cu * sv, -c * su)
        xv = _vectors(-a * su * sv, b * su * cv, 0.0)
        return xu, xv

    def d2(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        xuu = _vectors(-a * su * cv, -b * su * sv, -c * cu)
        xuv = _vectors(-a * cu * sv, b * cu * cv, 0.0)
        xvv = _vectors(-a * su * cv, -b * su * sv, 0.0)
        return xuu, xuv, xvv

    return ParametricSurface(fx, d1, d2, kind="polar", name="ellipsoid",
                             params={"a": a, "b": b, "c": c})


def spheroid(a, c):
    """Spheroid with equatorial semi-axis ``a`` and polar semi-axis ``c``.

    Oblate for a > c, prolate for a < c; an alias for ellipsoid(a, a, c).
    """
    s = ellipsoid(a, a, c)
    s.name = "spheroid"
    s.params = {"a": float(a), "c": float(c)}
    return s


def torus(R=2.0, r=1.0):
    """Ring torus with center-circle radius ``R`` and tube radius ``r``.

    u winds around the tube (poloidal), v around the axis (toroidal).
    """
    R, r = float(R), float(r)
    if not (R > r > 0):
        raise ConfigError("torus requires R > r > 0")

    def fx(u, v):
        w = R + r * np.cos(u)
        return _vectors(w * np.cos(v), w * np.sin(v), r * np.sin(u))

    def d1(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        w = R + r * cu
        xu = _vectors(-r * su * cv, -r * su * sv, r * cu)
        xv = _vectors(-w * sv, w * cv, 0.0)
        return xu, xv

    def d2(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        w = R + r * cu
        xuu = _vectors(-r * cu * cv, -r * cu * sv, -r * su)
        xuv = _vectors(r * su * sv, -r * su * cv, 0.0)
        xvv = _vectors(-w * cv, -w * sv, 0.0)
        return xuu, xuv, xvv

    return ParametricSurface(fx, d1, d2, kind="biperiodic", name="torus",
                             params={"R": R, "r": r})


def peanut(c=1.0, d=1.1):
    """Smooth non-convex genus-0 body of revolution.

    Radial profile rho(u) = c*sqrt(cos(2u) + sqrt(d - sin(2u)^2)) about the
    polar angle u; requires d > 1 so the profile stays positive and smooth.
    """
    c, d = float(c), float(d)
    if c <= 0:
        raise ConfigError("peanut requires c > 0")
    if d <= 1:
        raise ConfigError("peanut requires d > 1")

    def rho_funcs(u):
        s2, c2 = np.sin(2 * u), np.cos(2 * u)
        f = d - s2 * s2
        q = np.sqrt(f)
        # f' = -2 sin(4u), f'' = -8 cos(4u); chain rule through two sqrt layers
        fp = -2 * np.sin(4 * u)
        fpp = -8 * np.cos(4 * u)
        qp = fp / (2 * q)
        qpp = fpp / (2 * q) - fp * fp / (4 * q ** 3)
        rho2 = c * c * (c2 + q)
        rho = np.sqrt(rho2)
        dr2 = c * c * (-2 * s2 + qp)
        d2r2 = c * c * (-4 * c2 + qpp)
        drho = dr2 / (2 * rho)
        d2rho = d2r2 / (2 * rho) - dr2 * dr2 / (4 * rho ** 3)
        return rho, drho, d2rho

    def fx(u, v):
        rho, _, _ = rho_funcs(u)
        su = np.sin(u)
        return _vectors(rho * su * np.cos(v), rho * su * np.sin(v),
                        rho * np.cos(u))

    def d1(u, v):
        rho, dr, _ = rho_funcs(u)
        su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
        ru = dr * su + rho * cu
        xu = _vectors(ru * cv, ru * sv, dr * cu - rho * su)
        xv = _vectors(-rho * su * sv, rho * su * cv, 0.0)
        return xu, xv

    def d2(u, v):
        rho, dr, d2r = rho_funcs(u)
        su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
        ru = dr * su + rho * cu
        ruu = d2r * su + 2 * dr * cu - rho * su
        zuu = d2r * cu - 2 * dr * su - rho * cu
        xuu = _vectors(ruu * cv, ruu * sv, zuu)
        xuv = _vectors(-ru * sv, ru * cv, 0.0)
        xvv = _vectors(-rho * su * cv, -rho * su * sv, 0.0)
        return xuu, xuv, xvv

    return ParametricSurface(fx, d1, d2, kind="polar", name="peanut",
                             params={"c": c, "d": d})


CATALOG = {
    "sphere": sphere,
    "ellipsoid": ellipsoid,
    "spheroid": spheroid,
    "torus": torus,
    "peanut": peanut,
}


def catalog_names():
    """Names accepted by configs and the command line."""
    return sorted(CATALOG)


# ------------------------------------------------------------------ transforms
def _distance_to_surface(surface, point):
    """Distance from ``point`` to the surface, and the surface's extent.

    The nearest sample of a 64 x 96 probe grid is refined by Gauss-Newton
    steps on |x(u, v) - point|^2: least squares on the 2 x 2 normal
    equations, so the vanishing G at polar-chart poles is harmless, with u
    clipped to the polar chart interval [0, pi].  The extent is the
    largest probe distance.
    """
    u, v, _ = surface._probe_nodes(64, 96)
    dist = np.sqrt(np.sum((surface.position(u, v) - point) ** 2, axis=-1))
    i = int(np.argmin(dist))
    uu, vv = u[i:i + 1], v[i:i + 1]
    for _ in range(_NEWTON_STEPS):
        r = surface.position(uu, vv)[0] - point
        xu, xv = surface.first_derivatives(uu, vv)
        jac = _vectors(xu[0], xv[0])
        du, dv = np.linalg.lstsq(jac.T @ jac, -jac.T @ r, rcond=None)[0]
        uu, vv = uu + du, vv + dv
        if surface.kind == "polar":
            uu = np.clip(uu, 0.0, np.pi)
    refined = float(np.linalg.norm(surface.position(uu, vv)[0] - point))
    return min(float(dist[i]), refined), float(dist.max())


def mobius_invert(surface, center, radius=1.0):
    """Invert a surface in the sphere of the given center and radius.

    The image surface is x -> center + radius^2 (x - center)/|x - center|^2
    with first and second derivatives composed through the chain rule of the
    inversion map.  Orientation of the image is re-derived from scratch
    (inversions can reverse it), so image normals again point outward.

    Parameters
    ----------
    surface : ParametricSurface
        Base surface; the inversion center must not lie on it.
    center : sequence of 3 floats
        Center of the inversion sphere, strictly off the surface.
    radius : float
        Radius of the inversion sphere.

    Raises
    ------
    ConfigError
        If the radius is not positive or its square overflows or underflows
        double precision.
    SingularInversion
        If the center lies on the surface within a relative tolerance of
        1e-6 of the surface extent (the image would be unbounded).
    """
    cvec = np.asarray(center, dtype=float).reshape(3)
    radius = float(radius)
    if not radius > 0:
        raise ConfigError(f"inversion radius must be positive, got {radius}")
    rho2 = radius * radius
    if not np.finfo(float).tiny <= rho2 < np.inf:
        raise ConfigError(
            f"inversion radius {radius!r}: its square "
            f"{'overflows' if rho2 > 1 else 'underflows'} double precision")
    dist, extent = _distance_to_surface(surface, cvec)
    if dist < 1e-6 * extent:
        raise SingularInversion(
            f"inversion center {cvec.tolist()} lies on the surface "
            f"(min distance {dist:.3e})")

    def fx(uu, vv):
        rvec = surface.position(uu, vv) - cvec
        r2 = np.sum(rvec * rvec, axis=-1)[..., None]
        return cvec + rho2 * rvec / r2

    def dphi(rvec, r2, a):
        ra = np.sum(rvec * a, axis=-1)[..., None]
        return rho2 * (a - 2 * rvec * ra / r2) / r2

    def d2phi(rvec, r2, a, b):
        ra = np.sum(rvec * a, axis=-1)[..., None]
        rb = np.sum(rvec * b, axis=-1)[..., None]
        ab = np.sum(a * b, axis=-1)[..., None]
        return (rho2 * (-2 * a * rb - 2 * b * ra - 2 * rvec * ab) / (r2 * r2)
                + 8 * rho2 * rvec * ra * rb / r2 ** 3)

    def d1(uu, vv):
        rvec = surface.position(uu, vv) - cvec
        r2 = np.sum(rvec * rvec, axis=-1)[..., None]
        xu, xv = surface.first_derivatives(uu, vv)
        return dphi(rvec, r2, xu), dphi(rvec, r2, xv)

    def d2(uu, vv):
        rvec = surface.position(uu, vv) - cvec
        r2 = np.sum(rvec * rvec, axis=-1)[..., None]
        xu, xv = surface.first_derivatives(uu, vv)
        xuu, xuv, xvv = surface.second_derivatives(uu, vv)
        yuu = d2phi(rvec, r2, xu, xu) + dphi(rvec, r2, xuu)
        yuv = d2phi(rvec, r2, xu, xv) + dphi(rvec, r2, xuv)
        yvv = d2phi(rvec, r2, xv, xv) + dphi(rvec, r2, xvv)
        return yuu, yuv, yvv

    return ParametricSurface(
        fx, d1, d2, kind=surface.kind, name=f"invert({surface.name})",
        params={"center": cvec.tolist(), "radius": radius,
                "inner": {"name": surface.name, **surface.params}})


def rigid_transform(surface, rotation=None, translation=(0.0, 0.0, 0.0)):
    """Apply a proper rigid motion x -> R x + t to a surface.

    ``rotation`` must be a proper orthogonal 3x3 matrix (det +1); the
    identity is used when omitted.
    """
    tvec = np.asarray(translation, dtype=float).reshape(3)
    if rotation is None:
        rot = np.eye(3)
    else:
        rot = np.asarray(rotation, dtype=float).reshape(3, 3)
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-10) \
                or abs(np.linalg.det(rot) - 1.0) > 1e-10:
            raise ConfigError("rotation must be proper orthogonal (det +1)")
    rot_t = rot.T

    def fx(u, v):
        return surface.position(u, v) @ rot_t + tvec

    def d1(u, v):
        xu, xv = surface.first_derivatives(u, v)
        return xu @ rot_t, xv @ rot_t

    def d2(u, v):
        xuu, xuv, xvv = surface.second_derivatives(u, v)
        return xuu @ rot_t, xuv @ rot_t, xvv @ rot_t

    return ParametricSurface(fx, d1, d2, kind=surface.kind, name=surface.name,
                             params=surface.params)

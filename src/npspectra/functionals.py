"""Curvature functionals driving the eigenvalue asymptotics.

The spectral coefficients are surface integrals of the principal curvatures
k1, k2 (outer-normal convention, so spheres have negative curvatures):

    A_total = (3 W - 2 pi chi) / (128 pi)
    A_pm    = (1/128 pi^2) Int_Gamma dS Int_0^2pi [(k1 cos^2 t + k2 sin^2 t)_mp]^2 dt

with W the Willmore energy, chi the Euler characteristic, x_+ = max(x, 0)
and x_- = max(-x, 0).  Note the sign flip: A_plus integrates the negative
part of the curvature form, A_minus the positive part.  The inner integral
has a closed form at each node (``_positive_part_integral``), so the only
quadrature in A_pm is the grid's surface rule.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TopologyWarning
from .geometry import SurfaceFrame
from .grids import QuadratureGrid, surface_integral


@dataclass
class WeylCoefficients:
    """Geometric coefficients of the eigenvalue power laws.

    ``A_plus``/``A_minus`` govern the positive/negative branches and
    ``A_total`` the two-sided modulus asymptotics; ``euler_char`` is the
    Gauss-Bonnet integral (near-integer for a well-resolved closed surface).
    """

    A_total: float
    A_plus: float
    A_minus: float
    willmore: float
    euler_char: float


def willmore_energy(grid: QuadratureGrid) -> float:
    """Integral of the squared mean curvature over the surface.

    Sums over all grid components; scale-invariant and unchanged under
    Mobius transformations of the surface.
    """
    return surface_integral(grid, grid.mean_curvature ** 2)


def euler_characteristic(grid: QuadratureGrid) -> float:
    """Euler characteristic by the Gauss-Bonnet integral.

    Returns (1/2 pi) times the integral of the Gauss curvature; the caller
    may round when the value is within 1e-6 of an integer.

    Warns
    -----
    TopologyWarning
        If the value is farther than 1e-3 from any integer, which signals a
        grid too coarse for the surface's topology, or farther than 1e-3
        from the Euler characteristic its charts declare: 2 per ``polar``
        (sphere-type) component and 0 per ``biperiodic`` (torus-type) one.
        Mobius inversion keeps the chart kind, so a coarse grid on a badly
        inverted surface warns even when its integral lands near a wrong
        integer.
    """
    chi = surface_integral(grid, grid.gauss_curvature) / (2 * np.pi)
    declared = sum(2 for c in grid.components if c.surface.kind == "polar")
    if abs(chi - round(chi)) > 1e-3:
        warnings.warn(
            f"Gauss-Bonnet integral {chi:.6f} is not near an integer; "
            f"the grid may be too coarse", TopologyWarning, stacklevel=2)
    elif abs(chi - declared) > 1e-3:
        warnings.warn(
            f"Gauss-Bonnet integral {chi:.6f} is not the Euler "
            f"characteristic {declared} of the surface's charts; the grid "
            f"may be too coarse", TopologyWarning, stacklevel=2)
    return chi


def _positive_part_integral(p, q):
    """Int_0^2pi [(p + q cos 2t)_+]^2 dt, elementwise, for q >= 0.

    The closed form of ``weyl_coefficients_signed``: with
    cos a = clip(-p/q, -1, 1) the form is positive where 2t is within a of
    a multiple of 2 pi.  At q = 0 the form is the constant p, so a = pi
    for p > 0 and a = 0 otherwise.
    """
    cos_a = np.clip(np.divide(-p, q, out=np.where(p > 0, -1.0, 1.0),
                              where=q > 0), -1.0, 1.0)
    a = np.arccos(cos_a)
    sin_a = np.sin(a)
    return (2 * p * p + q * q) * a + 4 * p * q * sin_a \
        + q * q * sin_a * cos_a


def weyl_coefficients_signed(grid: QuadratureGrid) -> WeylCoefficients:
    """Signed and total asymptotics coefficients of a surface.

    Parameters
    ----------
    grid : QuadratureGrid
        Discretized surface with cached curvatures.

    Returns
    -------
    WeylCoefficients
        A_plus and A_minus, A_total from the Willmore energy and Euler
        characteristic, plus the two functionals.

    The angular integral is exact at each node.  With p = (k1 + k2)/2 and
    q = |k1 - k2|/2, the curvature form is p + q cos 2t up to a shift of t
    by pi/2, and the integral of its squared positive part over [0, 2 pi)
    is (2 p^2 + q^2) a + 4 p q sin a + q^2 sin a cos a, with
    cos a = clip(-p/q, -1, 1); its squared negative part takes -p for p.
    """
    p = 0.5 * (grid.k1 + grid.k2)
    q = 0.5 * np.abs(grid.k1 - grid.k2)
    # the mp subscript: A_plus integrates the negative part of the form
    a_plus = surface_integral(grid, _positive_part_integral(-p, q)) \
        / (128 * np.pi ** 2)
    a_minus = surface_integral(grid, _positive_part_integral(p, q)) \
        / (128 * np.pi ** 2)
    willmore = willmore_energy(grid)
    chi = euler_characteristic(grid)
    total = (3 * willmore - 2 * np.pi * chi) / (128 * np.pi)
    return WeylCoefficients(
        A_total=total, A_plus=float(a_plus), A_minus=float(a_minus),
        willmore=willmore, euler_char=chi)


def principal_symbol(frame: SurfaceFrame, xi) -> float:
    """Leading symbol of the boundary double-layer operator at a covector.

    Parameters
    ----------
    frame : SurfaceFrame
        Frame supplying the fundamental forms at one point.
    xi : pair of floats
        Nonzero covector components (xi1, xi2) in the chart basis.

    Returns
    -------
    float
        -(L xi2^2 - 2 M xi1 xi2 + N xi1^2) /
        (4 det(g) (sum g^jk xi_j xi_k)^(3/2)); homogeneous of degree -1 and
        positive wherever both principal curvatures are negative.

    Raises
    ------
    DomainError
        If xi is the zero covector.
    """
    xi1, xi2 = (float(c) for c in xi)
    if xi1 == 0.0 and xi2 == 0.0:
        raise DomainError("principal symbol undefined at the zero covector")
    det = frame.E * frame.G - frame.F * frame.F
    quad = (frame.G * xi1 * xi1 - 2 * frame.F * xi1 * xi2
            + frame.E * xi2 * xi2) / det
    num = -(frame.L * xi2 * xi2 - 2 * frame.M * xi1 * xi2
            + frame.N * xi1 * xi1)
    return num / (4 * det * quad ** 1.5)

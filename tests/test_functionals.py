"""Curvature functionals: Willmore, Euler characteristic, signed traces."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from npspectra import (
    TopologyWarning,
    build_grid,
    concatenate_grids,
    ellipsoid,
    euler_characteristic,
    mobius_invert,
    peanut,
    rigid_transform,
    sphere,
    spheroid,
    torus,
    weyl_coefficients_signed,
    willmore_energy,
)
from npspectra.functionals import _positive_part_integral
import reference as ref


@pytest.fixture(scope="module")
def sphere_grid():
    return build_grid(sphere(), 24, 48)


@pytest.fixture(scope="module")
def torus_grid():
    return build_grid(torus(), 32, 32)


@pytest.fixture(scope="module")
def peanut_grid():
    return build_grid(peanut(), 48, 96)


def test_sphere_willmore_exact(sphere_grid):
    assert abs(willmore_energy(sphere_grid) - 4.0 * np.pi) <= 1e-10


def test_sphere_euler_char(sphere_grid):
    assert abs(euler_characteristic(sphere_grid) - 2.0) <= 1e-10


def test_willmore_scale_invariant():
    small = build_grid(sphere(1.0), 16, 32)
    large = build_grid(sphere(3.0), 16, 32)
    assert abs(willmore_energy(small) - willmore_energy(large)) <= 1e-10


def test_sphere_coefficients(sphere_grid):
    coeffs = weyl_coefficients_signed(sphere_grid)
    assert abs(coeffs.A_total - ref.SPHERE_A_TOTAL) <= 1e-12
    assert abs(coeffs.A_plus - ref.SPHERE_A_TOTAL) <= 1e-10
    assert coeffs.A_minus <= 1e-12
    assert coeffs.euler_char == pytest.approx(2.0, abs=1e-10)
    assert coeffs.willmore == pytest.approx(4.0 * np.pi, abs=1e-10)


def test_torus_willmore_closed_form(torus_grid):
    assert abs(willmore_energy(torus_grid) - ref.TORUS_WILLMORE) \
        <= 1e-10 * ref.TORUS_WILLMORE


def test_torus_euler_char_zero(torus_grid):
    assert abs(euler_characteristic(torus_grid)) <= 1e-12


def test_torus_signed_coefficients(torus_grid):
    coeffs = weyl_coefficients_signed(torus_grid)
    assert abs(coeffs.A_total - ref.TORUS_A_TOTAL) <= 1e-10
    assert abs(coeffs.A_plus - ref.TORUS_A_PLUS) <= 5e-6
    assert abs(coeffs.A_minus - ref.TORUS_A_MINUS) <= 5e-6


def test_torus_signed_coefficients_at_64x64():
    # the angular integral is exact, so only the surface rule is left: a
    # 64-point angular trapezoid rule was 3.5e-7 off here
    coeffs = weyl_coefficients_signed(build_grid(torus(), 64, 64))
    assert abs(coeffs.A_plus - ref.TORUS_A_PLUS) <= 1e-7
    assert abs(coeffs.A_minus - ref.TORUS_A_MINUS) <= 1e-7


def _squared_part_by_quad(k1, k2, sign):
    """Int_0^2pi [sign f]_+^2 dt for f = k1 cos^2 t + k2 sin^2 t, by quad.

    The interval is split where f changes sign, so each piece integrates a
    smooth trigonometric polynomial.
    """
    def f(t):
        return k1 * np.cos(t) ** 2 + k2 * np.sin(t) ** 2

    cuts = [0.0, 2 * np.pi]
    if k1 * k2 < 0:
        t0 = np.arctan(np.sqrt(-k1 / k2))
        cuts += [t0, np.pi - t0, np.pi + t0, 2 * np.pi - t0]
    cuts = sorted(cuts)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if sign * f(0.5 * (lo + hi)) > 0:
            total += quad(lambda t: f(t) ** 2, lo, hi,
                          epsabs=1e-15 * (k1 * k1 + k2 * k2),
                          epsrel=2e-14, limit=200)[0]
    return total


@pytest.mark.parametrize("k1, k2", [
    (-1.0, -1.0), (-2.0, -0.5), (1.5, 0.25), (2.0, 2.0),
    (-1.0, 0.4), (0.3, -2.0), (0.0, -1.0), (1.0, 0.0), (0.0, 0.0),
    (1e6, -3e5), (-2e-6, 1e-6), (-1e6, -4e5), (7e-6, 7e-6), (-1e-6, 1e6),
])
def test_angular_integral_matches_quadrature(k1, k2):
    p, q = np.array([0.5 * (k1 + k2)]), np.array([0.5 * abs(k1 - k2)])
    scale = np.pi * (3 * k1 * k1 + 2 * k1 * k2 + 3 * k2 * k2) / 4
    for sign in (1.0, -1.0):
        got = _positive_part_integral(sign * p, q)[0]
        assert abs(got - _squared_part_by_quad(k1, k2, sign)) \
            <= 1e-13 * scale


def test_peanut_signed_coefficients(peanut_grid):
    coeffs = weyl_coefficients_signed(peanut_grid)
    assert abs(coeffs.willmore - ref.PEANUT_WILLMORE) <= 5e-6
    assert abs(coeffs.A_total - ref.PEANUT_A_TOTAL) <= 5e-6
    assert abs(coeffs.A_plus - ref.PEANUT_A_PLUS) <= 5e-6
    assert abs(coeffs.A_minus - ref.PEANUT_A_MINUS) <= 5e-6
    assert abs(coeffs.euler_char - 2.0) <= 5e-6


@pytest.mark.parametrize("factory,res", [
    (lambda: sphere(), (16, 32)),
    (lambda: ellipsoid(2.0, 1.2, 1.0), (16, 32)),
    (lambda: spheroid(2.0, 1.0), (16, 32)),
    (lambda: torus(), (16, 16)),
    (lambda: peanut(), (24, 48)),
])
def test_signed_sum_matches_total(factory, res):
    grid = build_grid(factory(), *res)
    coeffs = weyl_coefficients_signed(grid)
    assert abs(coeffs.A_plus + coeffs.A_minus - coeffs.A_total) <= 1e-10
    # same quadrature throughout: the identity holds with the computed
    # (not rounded) Euler characteristic
    formula = (3.0 * coeffs.willmore
               - 2.0 * np.pi * coeffs.euler_char) / (128.0 * np.pi)
    assert abs(coeffs.A_total - formula) <= 1e-12
    assert abs(coeffs.euler_char - round(coeffs.euler_char)) <= 6e-3


def test_euler_characteristic_warns_when_far_from_integer():
    grid = build_grid(peanut(), 4, 8)
    with pytest.warns(TopologyWarning):
        euler_characteristic(grid)


def test_euler_characteristic_warns_when_far_from_chart_topology():
    # inverting about a point 1e-3 outside the sphere leaves a sphere-type
    # chart whose coarse Gauss-Bonnet integral lands near 0, not 2
    surf = mobius_invert(sphere(), center=(1.001, 0.0, 0.0), radius=1.0)
    grid = build_grid(surf, 8, 16)
    with pytest.warns(TopologyWarning, match="Euler characteristic 2"):
        chi = euler_characteristic(grid)
    assert abs(chi) <= 1e-3


@pytest.mark.parametrize("make_grid", [
    lambda: build_grid(torus(), 16, 16),
    lambda: build_grid(mobius_invert(sphere(), center=(3.0, 0.0, 0.0),
                                     radius=1.0), 16, 32),
    lambda: concatenate_grids([
        build_grid(sphere(), 12, 24),
        build_grid(rigid_transform(torus(), None, (6.0, 0.0, 0.0)), 16, 16),
    ]),
], ids=["torus", "inverted-sphere", "sphere-and-torus"])
def test_euler_characteristic_silent_on_matching_topology(make_grid):
    grid = make_grid()
    declared = sum(2 for c in grid.components if c.surface.kind == "polar")
    with warnings.catch_warnings():
        warnings.simplefilter("error", TopologyWarning)
        assert abs(euler_characteristic(grid) - declared) <= 1e-3

"""Curvature functionals: Willmore, Euler characteristic, signed traces."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from npspectra import (
    ConfigError,
    TopologyWarning,
    build_grid,
    concatenate_grids,
    ellipsoid,
    euler_characteristic,
    mobius_invert,
    peanut,
    rigid_transform,
    signed_parts,
    sphere,
    spheroid,
    torus,
    weyl_coefficients_signed,
    willmore_energy,
)
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
    assert coeffs.angular_resolution == 64


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


def test_peanut_signed_coefficients(peanut_grid):
    coeffs = weyl_coefficients_signed(peanut_grid)
    assert abs(coeffs.willmore - ref.PEANUT_WILLMORE) <= 5e-6
    assert abs(coeffs.A_total - ref.PEANUT_A_TOTAL) <= 5e-6
    assert abs(coeffs.A_plus - ref.PEANUT_A_PLUS) <= 5e-6
    assert abs(coeffs.A_minus - ref.PEANUT_A_MINUS) <= 5e-6
    assert abs(coeffs.euler_char - 2.0) <= 5e-6


def test_signed_parts_identities():
    rng = np.random.default_rng(0)
    x = rng.normal(size=257)
    pos, neg = signed_parts(x)
    assert np.all(pos >= 0.0)
    assert np.all(neg >= 0.0)
    assert np.allclose(pos - neg, x)
    assert np.all(pos * neg == 0.0)


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


def test_angular_refinement_stable_convex(sphere_grid):
    c64 = weyl_coefficients_signed(sphere_grid, 64)
    c128 = weyl_coefficients_signed(sphere_grid, 128)
    assert abs(c64.A_plus - c128.A_plus) <= 1e-10
    grid = build_grid(ellipsoid(2.0, 1.2, 1.0), 16, 32)
    c64 = weyl_coefficients_signed(grid, 64)
    c128 = weyl_coefficients_signed(grid, 128)
    assert abs(c64.A_plus - c128.A_plus) <= 1e-10


def test_angular_refinement_nonconvex_trapezoid_rate(torus_grid):
    # the angular integrand has kinks where the curvature form changes
    # sign, so doubling the angle count converges at the trapezoid rate
    # rather than spectrally
    c64 = weyl_coefficients_signed(torus_grid, 64)
    c128 = weyl_coefficients_signed(torus_grid, 128)
    assert abs(c64.A_minus - c128.A_minus) <= 1e-5
    assert abs(c128.A_minus - ref.TORUS_A_MINUS) \
        <= abs(c64.A_minus - ref.TORUS_A_MINUS) + 1e-12


def test_angular_resolution_validation(sphere_grid):
    with pytest.raises(ConfigError):
        weyl_coefficients_signed(sphere_grid, 8)
    # rejected before the n_nodes x n_theta arrays are allocated
    with pytest.raises(ConfigError, match="at most 4096"):
        weyl_coefficients_signed(sphere_grid, 10 ** 7)


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

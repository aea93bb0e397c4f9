"""Quadrature grids: layouts, weights, integrals, concatenation."""

from __future__ import annotations

import numpy as np
import pytest

from npspectra import (
    ConfigError,
    NumericalError,
    build_grid,
    concatenate_grids,
    ellipsoid,
    evaluate_frame,
    rigid_transform,
    sphere,
    surface_integral,
    torus,
)


def test_resolution_validation():
    with pytest.raises(ConfigError):
        build_grid(sphere(), 3, 32)
    with pytest.raises(ConfigError):
        build_grid(torus(), 16, 3)
    # the node bound of configs and the command line holds for API callers
    with pytest.raises(ConfigError, match="more than"):
        build_grid(sphere(), 4097, 4097)


@pytest.mark.parametrize("n_u, n_v", [
    (16.9, 32.2), (16.0, 32), (8, np.float64(16.0)), ("8", "16"),
    (True, 16), (8, np.bool_(True)), (None, 16),
])
def test_non_integer_resolution_rejected(n_u, n_v):
    # never rounded or parsed into a grid of another size
    with pytest.raises(ConfigError, match=r"^grid resolution: .* is not a "
                                          r"pair of integers"):
        build_grid(sphere(), n_u, n_v)


def test_numpy_integer_resolution_accepted():
    grid = build_grid(sphere(), np.int64(8), np.int32(16))
    assert grid.resolution == (8, 16)
    assert type(grid.components[0].n_u) is int
    assert np.array_equal(grid.points, build_grid(sphere(), 8, 16).points)


def test_sphere_grid_shapes_and_weights():
    grid = build_grid(sphere(), 12, 24)
    assert grid.n_nodes == 12 * 24
    assert grid.resolution == (12, 24)
    assert grid.points.shape == (288, 3)
    assert grid.normals.shape == (288, 3)
    assert np.all(grid.weights > 0.0)
    # Gauss-Legendre in cos(u) integrates the sphere area exactly
    assert abs(grid.weights.sum() - 4.0 * np.pi) <= 1e-12 * 4.0 * np.pi


def test_polar_nodes_avoid_poles():
    grid = build_grid(sphere(), 8, 16)
    comp = grid.components[0]
    u = grid.u[comp.slice]
    assert u.min() > 0.0
    assert u.max() < np.pi
    assert comp.start == 0
    assert comp.stop == grid.n_nodes


def test_polar_cells_partition_colatitude():
    grid = build_grid(sphere(), 8, 16)
    lo = grid.cell_u_lo[: 8 * 16 : 16]
    hi = grid.cell_u_hi[: 8 * 16 : 16]
    assert abs(lo.min()) <= 1e-14
    assert abs(hi.max() - np.pi) <= 1e-14
    # cells tile [0, pi] without gaps
    assert np.allclose(np.sort(hi)[:-1], np.sort(lo)[1:], atol=1e-13)
    assert np.all(hi > lo)


def test_torus_grid_area_exact():
    grid = build_grid(torus(R=2.0, r=1.0), 16, 16)
    area = 4.0 * np.pi ** 2 * 2.0 * 1.0
    assert abs(grid.weights.sum() - area) <= 1e-12 * area
    assert np.allclose(grid.cell_dv, 2.0 * np.pi / 16)


def test_node_ordering_matches_components():
    grid = build_grid(sphere(), 6, 8)
    assert grid.u.shape == (48,)
    # u repeats per row, v tiles within a row
    assert np.allclose(grid.u[:8], grid.u[0])
    assert np.allclose(grid.v[:8], grid.v[8:16])


def test_cached_curvatures_match_frames():
    grid = build_grid(ellipsoid(2.0, 1.2, 1.0), 8, 16)
    for i in (0, 37, 100):
        frame = evaluate_frame(grid.components[0].surface,
                               grid.u[i], grid.v[i])
        from npspectra import principal_curvatures

        k1, k2, mean, gauss = principal_curvatures(frame)
        assert abs(grid.k1[i] - k1) <= 1e-10
        assert abs(grid.k2[i] - k2) <= 1e-10
        assert abs(grid.mean_curvature[i] - mean) <= 1e-12
        assert abs(grid.gauss_curvature[i] - gauss) <= 1e-12


def test_surface_integral_callable_and_array():
    grid = build_grid(sphere(), 12, 24)
    from_callable = surface_integral(grid, lambda frames: np.ones(
        frames.point.shape[0]))
    assert abs(from_callable - 4.0 * np.pi) <= 1e-10
    from_array = surface_integral(grid, np.ones(grid.n_nodes))
    assert abs(from_array - 4.0 * np.pi) <= 1e-10


def test_surface_integral_polynomial_exact():
    # z^2 over the unit sphere: 4 pi / 3, integrated exactly by the rule
    grid = build_grid(sphere(), 8, 16)
    val = surface_integral(grid, grid.points[:, 2] ** 2)
    assert abs(val - 4.0 * np.pi / 3.0) <= 1e-12


def test_surface_integral_validation():
    grid = build_grid(sphere(), 8, 16)
    with pytest.raises(ConfigError):
        surface_integral(grid, np.ones(grid.n_nodes - 1))
    bad = np.ones(grid.n_nodes)
    bad[17] = np.nan
    with pytest.raises(NumericalError) as err:
        surface_integral(grid, bad)
    assert "17" in str(err.value)


def test_concatenate_two_spheres():
    far = rigid_transform(sphere(), None, (6.0, 0.0, 0.0))
    g1 = build_grid(sphere(), 8, 16)
    g2 = build_grid(far, 8, 16)
    union = concatenate_grids([g1, g2])
    assert union.n_nodes == g1.n_nodes + g2.n_nodes
    assert len(union.components) == 2
    assert union.components[0].start == 0
    assert union.components[1].start == g1.n_nodes
    assert union.components[1].stop == union.n_nodes
    assert abs(union.weights.sum() - 8.0 * np.pi) <= 1e-10
    assert np.allclose(union.points[g1.n_nodes:, 0] - 6.0,
                       g2.points[:, 0] - 6.0)

"""Surface catalog, derivative modes, inversion, and rigid motions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npspectra import (
    ConfigError,
    SingularInversion,
    build_grid,
    catalog_names,
    ellipsoid,
    evaluate_frame,
    mobius_invert,
    peanut,
    rigid_transform,
    sphere,
    spheroid,
    torus,
)
from npspectra import surfaces


def test_catalog_names_sorted_and_complete():
    names = catalog_names()
    assert names == sorted(names)
    assert set(names) == {"sphere", "ellipsoid", "spheroid", "torus",
                          "peanut"}


def test_sphere_points_lie_on_sphere():
    surf = sphere(r=2.5)
    u = np.linspace(0.1, np.pi - 0.1, 7)
    v = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    pts = surf.position(u, v)
    assert np.allclose(np.linalg.norm(pts, axis=-1), 2.5, atol=1e-14)


def test_surface_kinds_and_periods():
    assert sphere().kind == "polar"
    assert ellipsoid(2.0, 1.2, 1.0).kind == "polar"
    assert peanut().kind == "polar"
    assert torus().kind == "biperiodic"
    # the chart kind fixes the domain: u in (0, pi) on polar charts, and
    # period 2 pi in every periodic direction
    u, _, ulo, uhi, v, dv = surfaces._tensor_layout(sphere(), 8, 16)
    assert 0.0 < u.min() and u.max() < np.pi
    assert ulo[0] == 0.0 and uhi[-1] == np.pi
    assert dv == 2 * np.pi / 16
    u, wu, _, _, v, dv = surfaces._tensor_layout(torus(), 8, 16)
    assert np.all(wu == 2 * np.pi / 8) and dv == 2 * np.pi / 16


def test_params_echo():
    assert sphere().params == {"r": 1.0}
    assert torus(R=3.0, r=0.5).params == {"R": 3.0, "r": 0.5}
    assert spheroid(2.0, 1.0).params == {"a": 2.0, "c": 1.0}
    assert spheroid(2.0, 1.0).name == "spheroid"


@pytest.mark.parametrize("bad", [
    lambda: sphere(r=0.0),
    lambda: sphere(r=-1.0),
    lambda: ellipsoid(1.0, 0.0, 1.0),
    lambda: torus(R=1.0, r=2.0),
    lambda: torus(R=1.0, r=1.0),
    lambda: torus(R=0.0, r=-1.0),
    lambda: peanut(c=-1.0),
    lambda: peanut(d=1.0),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ConfigError):
        bad()


def test_analytic_mode_is_default_with_derivatives():
    assert sphere().derivative_mode == "analytic"
    assert torus().derivative_mode == "analytic"


def test_fd_mode_clone_keeps_surface():
    surf = sphere()
    fd = surf.with_derivative_mode("finite_difference")
    assert fd.derivative_mode == "finite_difference"
    assert surf.derivative_mode == "analytic"
    u, v = 1.1, 2.3
    assert np.allclose(fd.position(u, v), surf.position(u, v))


@pytest.mark.parametrize("surf", [
    sphere(), ellipsoid(2.0, 1.2, 1.0), torus(), peanut(),
])
def test_fd_derivatives_match_analytic(surf):
    fd = surf.with_derivative_mode("finite_difference")
    rng = np.random.default_rng(7)
    u = rng.uniform(0.3, np.pi - 0.3, 5)
    if surf.kind == "biperiodic":
        u = rng.uniform(0.0, 2 * np.pi, 5)
    v = rng.uniform(0.0, 2 * np.pi, 5)
    xu, xv = surf.first_derivatives(u, v)
    fu, fv = fd.first_derivatives(u, v)
    scale = np.abs(xu).max() + np.abs(xv).max()
    assert np.abs(fu - xu).max() <= 1e-8 * scale
    assert np.abs(fv - xv).max() <= 1e-8 * scale
    xuu, xuv, xvv = surf.second_derivatives(u, v)
    fuu, fuv, fvv = fd.second_derivatives(u, v)
    scale = max(np.abs(m).max() for m in (xuu, xuv, xvv)) + 1.0
    assert np.abs(fuu - xuu).max() <= 1e-6 * scale
    assert np.abs(fuv - xuv).max() <= 1e-6 * scale
    assert np.abs(fvv - xvv).max() <= 1e-6 * scale


# a rotation that moves every coordinate plane off itself
_ROTATION = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0],
                      [0.48, 0.64, 0.6]])
# the catalog and one rigid motion and one inversion of it
_BROADCAST_CHARTS = {
    "sphere": sphere(),
    "ellipsoid": ellipsoid(2.0, 1.2, 1.0),
    "spheroid": spheroid(1.0, 1.6),
    "torus": torus(),
    "peanut": peanut(),
    "turned-peanut": rigid_transform(
        peanut(), _ROTATION, (0.5, -1.0, 2.0)),
    "inverted-peanut": mobius_invert(peanut(), (3.0, 0.5, 0.0)),
}


@pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
@pytest.mark.parametrize("name", list(_BROADCAST_CHARTS))
def test_charts_broadcast_their_arguments(name, mode):
    # u on one axis, v on another: the broadcast shape + (3,), with the
    # values of an evaluation on the full arrays
    surf = _BROADCAST_CHARTS[name].with_derivative_mode(mode)
    u = np.linspace(0.2, 2.9, 4)[None, :, None]
    v = np.linspace(0.1, 6.0, 5)[None, None, :]
    uu, vv = np.broadcast_arrays(u, v)
    for tensor, full in [
        ((surf.position(u, v),), (surf.position(uu, vv),)),
        (surf.first_derivatives(u, v), surf.first_derivatives(uu, vv)),
        (surf.second_derivatives(u, v), surf.second_derivatives(uu, vv)),
    ]:
        for part, ref in zip(tensor, full):
            assert part.shape == (1, 4, 5, 3)
            assert np.array_equal(part, ref)


def test_fd_only_surface_supports_frames():
    base = sphere()
    from npspectra import ParametricSurface

    bare = ParametricSurface(
        position=base.position, kind="polar", name="bare-sphere",
        params={})
    assert bare.derivative_mode == "finite_difference"
    frame = evaluate_frame(bare, 1.0, 1.0)
    assert np.allclose(frame.point, base.position(1.0, 1.0))
    assert abs(frame.E - 1.0) <= 1e-6


@pytest.mark.parametrize("surf", [
    sphere(), ellipsoid(2.0, 1.2, 1.0), torus(), peanut(),
])
def test_normals_point_outward(surf):
    u = 1.0 if surf.kind == "polar" else 0.5
    frame = evaluate_frame(surf, u, 0.7)
    # all catalog surfaces are star shaped about the origin except the
    # torus, whose outward direction at the outer equator is radial
    if surf.name == "torus":
        frame = evaluate_frame(surf, 0.0, 0.7)
    assert float(np.dot(frame.normal, frame.point)) > 0.0


def test_inversion_of_sphere_is_sphere():
    # inverting |x| = 1 about a center at distance d with radius rho maps
    # onto a sphere of radius rho^2 / |d^2 - 1|
    # inverting |x| = 1 about p = (3,0,0) with radius 1 maps the axis
    # points (+-1, 0, 0) to 2.5 and 2.75, so the image is the sphere of
    # radius 1/8 centered at (2.625, 0, 0)
    surf = mobius_invert(sphere(), center=(3.0, 0.0, 0.0), radius=1.0)
    uu, vv = np.meshgrid(np.linspace(0.2, np.pi - 0.2, 9),
                         np.linspace(0.0, 2 * np.pi, 9, endpoint=False))
    pts = surf.position(uu, vv).reshape(-1, 3)
    radii = np.linalg.norm(pts - np.array([2.625, 0.0, 0.0]), axis=-1)
    assert np.abs(radii - 1.0 / 8.0).max() <= 1e-12


def test_inversion_image_normals_outward():
    surf = mobius_invert(sphere(), center=(3.0, 0.0, 0.0), radius=1.0)
    frame = evaluate_frame(surf, 1.3, 0.4)
    uu, vv = np.meshgrid(np.linspace(0.2, np.pi - 0.2, 12),
                         np.linspace(0.0, 2 * np.pi, 12, endpoint=False))
    probe = surf.position(uu, vv).reshape(-1, 3)
    center = probe.mean(axis=0)
    assert float(np.dot(frame.normal, frame.point - center)) > 0.0


def test_inversion_center_on_surface_rejected():
    # the guard samples the surface, so place the center on a sample point
    t = np.polynomial.legendre.leggauss(64)[0][20]
    on_surface = sphere().position(np.arccos(t), 0.0)
    with pytest.raises(SingularInversion):
        mobius_invert(sphere(), center=on_surface, radius=1.0)


@pytest.mark.parametrize("surface, center", [
    # the equator lies between the Gauss-Legendre probe rows, and the pole
    # beyond the last one
    (sphere(), (1.0, 0.0, 0.0)),
    (sphere(), (0.0, 0.0, 1.0)),
    # halfway between probe rows and columns of a biperiodic chart
    (torus(), tuple(torus().position(np.pi / 64, np.pi / 96))),
])
def test_inversion_center_on_surface_between_probes_rejected(surface,
                                                             center):
    with pytest.raises(SingularInversion):
        mobius_invert(surface, center=center, radius=1.0)


def test_inversion_center_just_off_surface_accepted():
    surf = mobius_invert(sphere(), center=(1.001, 0.0, 0.0), radius=1.0)
    assert surf.params["center"] == [1.001, 0.0, 0.0]


# distance of an inversion center from the unit sphere: on it, near it
# (1e-9 to 1e-4, either side, across the 1e-6 x extent guard) or off it
_offsets = st.one_of(
    st.just(0.0),
    st.tuples(st.floats(-9.0, -4.0), st.sampled_from([-1.0, 1.0])).map(
        lambda t: t[1] * 10.0 ** t[0]),
    st.floats(-1.0, -0.1), st.floats(0.1, 3.0))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi), _offsets)
def test_inversion_guard_matches_refined_distance(theta, phi, offset):
    base = sphere()
    center = (1.0 + offset) * np.array([np.sin(theta) * np.cos(phi),
                                        np.sin(theta) * np.sin(phi),
                                        np.cos(theta)])
    dist, extent = surfaces._distance_to_surface(base, center)
    if abs(offset) <= 1e-4:
        # near the surface the refinement finds the true distance
        assert abs(dist - abs(offset)) <= 1e-12
    try:
        surf = mobius_invert(base, center=center, radius=1.0)
    except SingularInversion:
        assert dist < 1e-6 * extent
        return
    assert dist >= 1e-6 * extent
    weights = build_grid(surf, 8, 16).weights
    assert np.all(np.isfinite(weights) & (weights > 0))


def test_inversion_params_record():
    surf = mobius_invert(sphere(), center=(3.0, 0.0, 0.0), radius=2.0)
    assert surf.params["radius"] == 2.0
    assert tuple(surf.params["center"]) == (3.0, 0.0, 0.0)
    assert surf.params["inner"] == {"name": "sphere", "r": 1.0}


def test_inversion_derivatives_match_fd():
    surf = mobius_invert(ellipsoid(2.0, 1.2, 1.0), center=(2.1, 0.0, 0.0),
                         radius=1.0)
    fd = surf.with_derivative_mode("finite_difference")
    u, v = 1.2, 2.8
    xu, xv = surf.first_derivatives(u, v)
    fu, fv = fd.first_derivatives(u, v)
    assert np.abs(fu - xu).max() <= 1e-6 * (1 + np.abs(xu).max())
    assert np.abs(fv - xv).max() <= 1e-6 * (1 + np.abs(xv).max())
    xuu, xuv, xvv = surf.second_derivatives(u, v)
    fuu, fuv, fvv = fd.second_derivatives(u, v)
    scale = 1 + max(np.abs(m).max() for m in (xuu, xuv, xvv))
    assert np.abs(fuu - xuu).max() <= 1e-5 * scale
    assert np.abs(fuv - xuv).max() <= 1e-5 * scale
    assert np.abs(fvv - xvv).max() <= 1e-5 * scale


def test_rigid_transform_preserves_curvature():
    from npspectra import principal_curvatures

    theta = 0.8
    rot = np.array([
        [np.cos(theta), -np.sin(theta), 0.0],
        [np.sin(theta), np.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    moved = rigid_transform(ellipsoid(2.0, 1.2, 1.0), rot, (5.0, -1.0, 2.0))
    f0 = evaluate_frame(ellipsoid(2.0, 1.2, 1.0), 1.1, 0.6)
    f1 = evaluate_frame(moved, 1.1, 0.6)
    assert np.allclose(f1.point, rot @ f0.point + np.array([5.0, -1.0, 2.0]),
                       atol=1e-12)
    assert np.allclose(f1.normal, rot @ f0.normal, atol=1e-12)
    k0 = principal_curvatures(f0)
    k1 = principal_curvatures(f1)
    assert np.allclose(k0[:2], k1[:2], atol=1e-10)


def test_rigid_transform_rejects_improper_rotation():
    flip = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ConfigError):
        rigid_transform(sphere(), flip, (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        rigid_transform(sphere(), 2.0 * np.eye(3), (0.0, 0.0, 0.0))

"""Negative-eigenvalue counts by Sylvester inertia against the dense spectrum."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from npspectra import (
    ConfigError,
    NotPositiveDefinite,
    build_grid,
    ellipsoid,
    negative_count_study,
    operators,
    peanut,
    sphere,
    spectrum,
    symmetrized_spectrum,
    torus,
)
from test_operators import _two_sphere_union


def _gap_midpoints(eigs, min_gap=1e-9):
    """Midpoints of the gaps above ``min_gap`` between sorted eigenvalues."""
    eigs = np.sort(eigs)
    return 0.5 * (eigs[:-1] + eigs[1:])[np.diff(eigs) > min_gap]


@pytest.mark.parametrize("make_grid", [
    lambda: build_grid(peanut(), 16, 32),
    lambda: build_grid(torus(), 16, 16),
    lambda: build_grid(sphere(), 12, 24),
    lambda: build_grid(ellipsoid(2.0, 1.2, 1.0), 16, 32),
    _two_sphere_union,
], ids=["peanut", "torus", "sphere", "ellipsoid", "two-spheres"])
def test_inertia_count_matches_eigvalsh(make_grid, monkeypatch):
    grid = make_grid()
    eigs, _, _ = symmetrized_spectrum(grid)
    k_op, s_op = spectrum.assemble_operators(grid)
    # the count converts the operators in place, so each call gets copies
    monkeypatch.setattr(spectrum, "assemble_operators", lambda g: tuple(
        dataclasses.replace(op, rows=op.rows.copy())
        for op in (k_op, s_op)))
    # every gap between negative eigenvalues, and every 16th gap between
    # positive ones: Sylvester's argument holds for a threshold of any sign,
    # and the convex surfaces have no negative eigenvalues
    thresholds = np.concatenate([[1e-3], -_gap_midpoints(eigs[eigs < 0]),
                                 -_gap_midpoints(eigs[eigs > 0])[::16]])
    counts = [spectrum._negative_count(grid, t) for t in thresholds]
    want = [int(np.sum(eigs < -t)) for t in thresholds]
    assert counts == want


def test_negative_inertia_with_two_by_two_pivots():
    rng = np.random.default_rng(7)
    p = 40
    b = rng.standard_normal((p, p)) + 10.0 * np.eye(p)
    m = np.block([[np.zeros((p, p)), b], [b.T, np.zeros((p, p))]])
    m += np.diag(1e-3 * rng.standard_normal(2 * p))
    # eigenvalues +-sigma_i(B), moved by at most 1e-3 << sigma_min(B)
    assert sla.svdvals(b).min() > 0.1
    _, ipiv, _ = lapack.dsytrf(m, lower=1)
    assert np.any(ipiv < 0)
    lwork = int(lapack.dsytrf_lwork(2 * p, lower=1)[0])
    assert spectrum._negative_inertia(m.copy(), lwork) == p
    eigs = sla.eigvalsh(m)
    for shift in np.concatenate([[-20.0, 0.5, 20.0],
                                 0.5 * (eigs[:-1] + eigs[1:])]):
        assert spectrum._negative_inertia(m - shift * np.eye(2 * p),
                                          lwork) == int(np.sum(eigs < shift))


def test_failed_cholesky_in_study_is_not_positive_definite(monkeypatch):
    def failing_factor(a, *args, **kwargs):
        # LAPACK's info > 0: a leading minor is not positive definite
        return a, 1

    monkeypatch.setattr(operators, "dpotrf", failing_factor)
    with pytest.raises(NotPositiveDefinite, match="Cholesky") as err:
        negative_count_study(sphere(), [(8, 16), (10, 20), (12, 24)])
    assert not isinstance(err.value, np.linalg.LinAlgError)


@pytest.mark.parametrize("threshold", [np.inf, np.nan, -1e-3])
def test_study_rejects_nonfinite_threshold(threshold):
    with pytest.raises(ConfigError, match="threshold"):
        negative_count_study(sphere(), [8, 10, 12], threshold=threshold)


@pytest.mark.parametrize("last, message", [
    ((3, 200), "too small"),
    ((4097, 4097), "more than"),
    ((12, 24.7), "not a pair of integers"),
    ("12", "not a pair of integers"),
    (np.array(12), "not a pair of integers"),
    ((12,), "expected n or"),
    ((12, 24, 48), "expected n or"),
    ((12, [24, 48]), "not a pair of integers"),
])
def test_study_checks_every_resolution_first(last, message, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built before the resolutions were checked")

    monkeypatch.setattr(spectrum, "build_grid", no_grid)
    with pytest.raises(ConfigError, match=rf"resolutions\[2\]: .*{message}"):
        negative_count_study(sphere(), [(8, 8), (16, 16), last])


def test_study_rejects_a_non_integer_first_resolution(monkeypatch):
    # 16.7 would have run as 16 before any check
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built before the resolutions were checked")

    monkeypatch.setattr(spectrum, "build_grid", no_grid)
    with pytest.raises(ConfigError, match=r"^resolutions\[0\]: 8x16\.7 is "
                                          r"not a pair of integers"):
        negative_count_study(sphere(), [(8, 16.7), (12, 24), (16, 32)])

"""Counting functions, clustering, fits, plasmon map on synthetic data."""

from __future__ import annotations

import numpy as np
import pytest

from npspectra import (
    ConfigError,
    DomainError,
    PoleError,
    cluster_multiplicities,
    counting_function,
    default_fit_window,
    negative_count_study,
    plasmon_map,
    sphere,
    split_spectrum,
    weyl_fit,
)
import reference as ref


def sphere_sequence(k_max=12):
    vals = []
    for value, mult in ((1.0 / (2.0 * (2 * k + 1)), 2 * k + 1)
                        for k in range(k_max)):
        vals.extend([value] * mult)
    return np.array(vals)


def test_split_spectrum_signs_and_order():
    eigs = np.array([0.5, -0.2, 0.1, -0.4, 3e-12, -2e-12, 0.0])
    plus, minus = split_spectrum(eigs, cutoff=1e-10)
    assert plus.tolist() == [0.5, 0.1]
    assert minus.tolist() == [0.4, 0.2]


def test_split_spectrum_zero_cutoff_drops_exact_zero():
    plus, minus = split_spectrum(np.array([0.0, 0.3, -0.3]), cutoff=0.0)
    assert plus.tolist() == [0.3]
    assert minus.tolist() == [0.3]


def test_split_spectrum_negative_cutoff_rejected():
    with pytest.raises(ConfigError):
        split_spectrum(np.array([1.0]), cutoff=-1.0)


def test_counting_function_sphere_table():
    seq = sphere_sequence()
    assert counting_function(seq, 0.1) == ref.SPHERE_COUNT_ABOVE_TENTH
    assert counting_function(seq, 0.5) == 0
    assert counting_function(seq, 0.49) == 1
    assert counting_function(seq, 1.0 / 6.0) == 1
    assert counting_function(seq, 0.16) == 4


def test_counting_function_asymptotic_quarter():
    # n(lambda) ~ (1/4)^2 / lambda^2 for the sphere sequence; the cluster
    # staircase contributes an O(lambda) relative correction
    seq = sphere_sequence(120)
    for level in (0.02, 0.01, 0.005):
        expected = 0.0625 / level ** 2
        assert counting_function(seq, level) == pytest.approx(
            expected, rel=4.5 * level + 0.01)


def test_counting_function_rejects_bad_level():
    with pytest.raises(DomainError):
        counting_function(np.array([1.0]), 0.0)
    with pytest.raises(DomainError):
        counting_function(np.array([1.0]), -0.1)


def test_cluster_multiplicities_sphere_like():
    rng = np.random.default_rng(1)
    seq = sphere_sequence(4)
    noisy = seq * (1.0 + 1e-4 * rng.normal(size=seq.size))
    noisy = np.sort(noisy)[::-1]
    clusters = cluster_multiplicities(noisy, 5e-2)
    assert [m for _, m in clusters] == [1, 3, 5, 7]
    for (value, _), (expected, _) in zip(clusters, ref.SPHERE_CLUSTERS):
        assert value == pytest.approx(expected, rel=1e-3)


def test_cluster_multiplicities_all_separate():
    seq = np.array([1.0, 0.5, 0.25])
    assert cluster_multiplicities(seq, 1e-6) == [(1.0, 1), (0.5, 1),
                                                 (0.25, 1)]


def test_default_fit_window():
    assert default_fit_window(800) == (4, 100)
    assert default_fit_window(40) == (4, 5)
    assert default_fit_window(8) == (4, 4)


def test_weyl_fit_exact_power_law():
    j = np.arange(1, 401)
    seq = 0.25 / np.sqrt(j)
    fit = weyl_fit(seq, "auto")
    assert fit.window == (4, 50)
    assert fit.c_hat == pytest.approx(0.25, abs=1e-14)
    # the rank count n(lambda_j) = j - 1 gives a -1/j relative bias
    assert fit.counting_check == pytest.approx(0.0625, rel=5e-2)


def test_weyl_fit_counting_check_ignores_tie_order():
    # a sphere-like ladder: value 1/(2(2k+1)) with multiplicity 2k+1
    k = np.arange(1, 16)
    tied = np.repeat(0.5 / (2 * k + 1), 2 * k + 1)
    rng = np.random.default_rng(0)
    perturbed = np.sort(tied * (1 + 1e-14 * rng.standard_normal(tied.size)))
    fit_tied = weyl_fit(tied, "auto")
    fit_perturbed = weyl_fit(perturbed[::-1], "auto")
    assert fit_tied.window == fit_perturbed.window == (4, 31)
    assert fit_perturbed.counting_check == pytest.approx(
        fit_tied.counting_check, rel=1e-12)


def test_weyl_fit_explicit_window():
    j = np.arange(1, 101)
    seq = 0.1 / np.sqrt(j)
    fit = weyl_fit(seq, (10, 20))
    assert fit.window == (10, 20)
    assert fit.c_hat == pytest.approx(0.1, abs=1e-14)


def test_weyl_fit_noise_robust():
    rng = np.random.default_rng(42)
    j = np.arange(1, 2001)
    seq = np.sort(0.3 / np.sqrt(j) * (1.0 + 0.02 * rng.normal(size=j.size)))
    seq = seq[::-1]
    fit = weyl_fit(seq, "auto")
    assert fit.c_hat == pytest.approx(0.3, rel=3e-2)


def test_weyl_fit_window_validation():
    seq = 0.25 / np.sqrt(np.arange(1, 11))
    with pytest.raises(ConfigError):
        weyl_fit(seq, (5, 50))
    with pytest.raises(ConfigError):
        weyl_fit(seq, (0, 5))
    # auto clips to the sequence length instead of failing
    fit = weyl_fit(seq[:5], "auto")
    assert fit.window == (4, 4)


def test_plasmon_map_known_values():
    assert plasmon_map(1.0 / 6.0) == pytest.approx(2.0, abs=1e-14)
    assert plasmon_map(0.0) == pytest.approx(1.0, abs=1e-14)
    assert plasmon_map(-1.0 / 6.0) == pytest.approx(0.5, abs=1e-14)
    assert plasmon_map(-0.5) == pytest.approx(0.0, abs=1e-14)


def test_plasmon_map_pole():
    with pytest.raises(PoleError):
        plasmon_map(0.5)
    with pytest.raises(PoleError):
        plasmon_map(0.5 + 5e-13)


def test_plasmon_map_monotone():
    lams = np.linspace(-0.5, 0.49, 300)
    eps = np.array([plasmon_map(l) for l in lams])
    assert np.all(np.diff(eps) > 0.0)


def test_study_validation_no_solve():
    with pytest.raises(ConfigError):
        negative_count_study(sphere(), [(8, 8), (10, 10)])
    with pytest.raises(ConfigError):
        negative_count_study(sphere(), [(8, 8), (10, 10), (9, 9)])
    with pytest.raises(ConfigError):
        negative_count_study(sphere(), [8, 10, 12], threshold=0.0)

"""Spectrum extraction, counting functions, power-law fits, classification.

The eigenvalues of the symmetrized double layer decay like
lambda_j ~ +/- C_pm j^(-1/2); the fits estimate the constants C and the
study utilities track how the number of negative eigenvalues behaves under
grid refinement (bounded for convex-like bodies, growing for surfaces with
a region of positive curvature form).  The study needs only that number,
so it counts by Sylvester's law of inertia: one LDL^T factorization of
-sym(K S) - t S per block of the grid's mirror group, with no symmetrized
matrix and no eigensolve.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import ConfigError, DomainError, PoleError
from .functionals import WeylCoefficients
from .grids import build_grid, check_resolution
from .operators import (_cholesky_neg_s, _map_blocks, _mirror_blocks,
                        _symmetrize_blocks, assemble_operators)

BOUNDED = "BOUNDED"
GROWING = "GROWING"
INCONCLUSIVE = "INCONCLUSIVE"
# distance from 1/2 within which a discrete eigenvalue is the trivial one of
# the constant eigenfunction, the pole of ``plasmon_map``
TRIVIAL_TOL = 1e-3


@dataclass
class FitEstimate:
    """Result of a power-law coefficient fit.

    ``c_hat`` estimates C in lambda_j ~ C j^(-1/2); ``counting_check`` is
    the matching estimate of C^2 from the counting function (median of
    lambda_j^2 n(lambda_j) over the window, with n(lambda_j) = j - 1 the
    rank count), a consistency diagnostic.
    """

    c_hat: float
    window: tuple
    counting_check: float


@dataclass
class SpectrumReport:
    """Full spectral output of one pipeline run."""

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    singular_values: np.ndarray
    clusters: list
    fit: dict
    predicted: WeylCoefficients
    plasmon: list
    diagnostics: dict


@dataclass
class StudyResult:
    """Negative-eigenvalue counts across refinements and their trend."""

    rows: list
    classification: str
    threshold: float


def split_spectrum(eigs, cutoff: float):
    """Split real eigenvalues into signed branches, discarding noise.

    Parameters
    ----------
    eigs : array-like
        Real eigenvalues in any order.
    cutoff : float
        Values with |lambda| < cutoff are treated as discretization noise
        and dropped; must be nonnegative.

    Returns
    -------
    (lambda_plus, lambda_minus)
        Positive eigenvalues sorted descending, and moduli of negative
        eigenvalues sorted descending.
    """
    if cutoff < 0:
        raise ConfigError("cutoff must be nonnegative")
    eigs = np.asarray(eigs, dtype=float)
    plus = np.sort(eigs[(eigs > 0) & (eigs >= cutoff)])[::-1]
    minus = np.sort(-eigs[(eigs < 0) & (eigs <= -cutoff)])[::-1]
    return plus, minus


def counting_function(seq, level: float) -> int:
    """Number of entries of a descending positive sequence above a level.

    Strict inequality: entries equal to ``level`` are not counted.

    Raises
    ------
    DomainError
        If ``level`` is not strictly positive.
    """
    if not level > 0:
        raise DomainError(f"counting level must be positive, got {level}")
    seq = np.asarray(seq, dtype=float)
    return int(np.searchsorted(-seq, -level, side="left"))


def cluster_multiplicities(seq, rel_tol: float):
    """Greedy clustering of adjacent values of a sorted sequence.

    Consecutive values are merged into the current cluster while they stay
    within ``rel_tol`` relative distance of the running cluster mean.

    Returns
    -------
    list of (value, multiplicity)
        Cluster means and sizes, in the order of the input.
    """
    seq = np.asarray(seq, dtype=float)
    clusters = []
    total = 0.0
    count = 0
    for x in seq:
        if count and abs(x - total / count) > rel_tol * abs(total / count):
            clusters.append((total / count, count))
            total, count = 0.0, 0
        total += x
        count += 1
    if count:
        clusters.append((total / count, count))
    return clusters


def default_fit_window(n: int):
    """Fit window [4, max(4, n // 8)] used when the config says "auto"."""
    return (4, max(4, n // 8))


def weyl_fit(seq, window) -> FitEstimate:
    """Estimate C in lambda_j ~ C j^(-1/2) from a descending sequence.

    Parameters
    ----------
    seq : array-like
        Descending positive sequence with trivial eigenvalues already
        removed (1-based indexing of the fit starts at seq[0]).
    window : (j_lo, j_hi) or "auto"
        Inclusive 1-based index window of the fit; "auto" selects
        ``default_fit_window`` clipped to the sequence length.

    Returns
    -------
    FitEstimate
        Median of lambda_j sqrt(j) over the window, and the counting-based
        estimate of C^2 as a consistency check.  The check counts by rank,
        n(lambda_j) = j - 1: the strict count of ``counting_function``
        wherever the values are distinct, and unchanged when rounding
        reorders tied values.

    Raises
    ------
    ConfigError
        If the window is empty or outside [1, len(seq)].
    """
    seq = np.asarray(seq, dtype=float)
    n = seq.size
    if window == "auto":
        j_lo, j_hi = default_fit_window(n)
        j_hi = min(j_hi, n)
        j_lo = min(j_lo, j_hi)
    else:
        j_lo, j_hi = int(window[0]), int(window[1])
    if not (1 <= j_lo <= j_hi <= n):
        raise ConfigError(
            f"fit window ({j_lo}, {j_hi}) outside valid range [1, {n}]")
    j = np.arange(j_lo, j_hi + 1)
    vals = seq[j - 1]
    c_hat = float(np.median(vals * np.sqrt(j)))
    counting_check = float(np.median(vals ** 2 * (j - 1)))
    return FitEstimate(c_hat=c_hat, window=(j_lo, j_hi),
                       counting_check=counting_check)


def plasmon_map(lam: float) -> float:
    """Material eigenvalue of the transmission problem for one NP eigenvalue.

    epsilon = 1 - 2 lambda / (lambda - 1/2); monotone increasing on
    (-1/2, 1/2) with limit 1 at lambda = 0.

    Raises
    ------
    PoleError
        If lambda is within 1e-12 of 1/2 (the constant eigenfunction has no
        transmission counterpart).
    """
    lam = float(lam)
    if abs(lam - 0.5) <= 1e-12:
        raise PoleError("lambda = 1/2 is a pole of the plasmonic map")
    return 1.0 - 2.0 * lam / (lam - 0.5)


def _operator_blocks(grid):
    """K_w and S_w split into the blocks of the grid's mirror group.

    Assembles the representative rows of K and S and returns
    ``_mirror_blocks`` of them: one (K_b, S_b) pair per character, or on
    a grid without mirrors the single pair (K_w, S_w), the rows converted
    in place.  No n x n array is built on a grid with mirrors, and the
    rows are freed on return unless they are that single pair.
    """
    k_op, s_op = assemble_operators(grid)
    return _mirror_blocks(grid, k_op.rows, s_op.rows)


def _sorted_union(parts):
    """All values of the per-block arrays, sorted descending."""
    return np.sort(np.concatenate(list(parts)))[::-1]


def symmetrized_spectrum(grid):
    """Assemble, symmetrize, and return eigenvalues sorted descending.

    The route of ``compute_report``: each mirror block is symmetrized on
    its own (``operators._symmetrize_blocks``) and the eigenvalues are the
    sorted union of the block ``eigvalsh``, the blocks running side by
    side with one BLAS thread per call (``operators._map_blocks``).
    Returns them with the ``symmetrized`` operator Q blockdiag(sym_b) Q^T
    and its diagnostics; the operator holds its representative rows and
    builds its n x n ``matrix`` on first access.
    """
    sym, sym_blocks = _symmetrize_blocks(grid, _operator_blocks(grid))
    return _sorted_union(_map_blocks(sla.eigvalsh, sym_blocks)), sym


def _negative_inertia(m: np.ndarray) -> int:
    """Number of negative eigenvalues of the symmetric matrix ``m``.

    Factors m = P L D L^T P^T by Bunch-Kaufman pivoting (LAPACK ``sytrf``,
    in the storage of ``m``, which is overwritten).  By Sylvester's law of
    inertia m and the block-diagonal D have the same inertia.  A 1 x 1
    pivot counts by its sign; a 2 x 2 block [[a, b], [b, c]] has one
    negative eigenvalue if its determinant is negative, two if the
    determinant is positive and the trace negative, and one if the
    determinant is zero and the trace negative.
    """
    n = m.shape[0]
    lwork, _ = lapack.dsytrf_lwork(n, lower=1)
    # m is symmetric, so its transpose is the Fortran-ordered operand that
    # sytrf factors without a copy
    ldu, ipiv, _ = lapack.dsytrf(m.T, lower=1, lwork=int(lwork),
                                 overwrite_a=1)
    d = ldu.diagonal()
    # a 2 x 2 block (k, k+1) has ipiv[k] = ipiv[k+1] < 0, so in a run of
    # negative pivot indices the blocks start at even offsets
    idx = np.arange(n)
    two = ipiv < 0
    run_start = np.maximum.accumulate(np.where(two, 0, idx + 1))
    k = np.flatnonzero(two & ((idx - run_start) % 2 == 0))
    a, c, b = d[k], d[k + 1], ldu[k + 1, k]
    det, trace = a * c - b * b, a + c
    return int(np.count_nonzero(d[~two] < 0)
               + np.count_nonzero(det < 0)
               + np.count_nonzero((det >= 0) & (trace < 0))
               + np.count_nonzero((det > 0) & (trace < 0)))


def _negative_count(grid, threshold: float) -> int:
    """Number of eigenvalues of the symmetrized double layer below -threshold.

    K and S are split into the blocks of the grid's mirror group
    (``_operator_blocks``; one block without mirrors), and the count is
    the sum of the block counts (``_block_negative_count``), the blocks
    running side by side with one BLAS thread per call
    (``operators._map_blocks``).

    Raises
    ------
    NotPositiveDefinite
        If the Cholesky factorization of some block of -S fails; the
        first such block in block order raises.
    """
    def count(block):
        return _block_negative_count(*block, threshold)

    return sum(_map_blocks(count, _operator_blocks(grid)))


def _block_negative_count(k, s, threshold: float) -> int:
    """Eigenvalues below -threshold of the symmetrization of one block.

    With -S = L L^T, the block's symmetrization sym(L^-1 K L)
    (``operators._plemelj_symmetrize``) equals L^-1 M L^-T for
    M = -sym(K S) (weighted_l2 basis), so by Sylvester's law of inertia
    the count is the number of negative eigenvalues of M - threshold S.
    A successful Cholesky factorization of -S certifies that it is
    positive definite; the factor is not needed otherwise.  One product
    K S and one LDL^T factorization replace the similarity transform and
    the eigensolve; ``k`` and ``s`` are consumed, and at most three arrays
    of their size are alive at any time.

    Raises
    ------
    NotPositiveDefinite
        If the Cholesky factorization of -S fails.
    """
    _cholesky_neg_s(np.negative(s, order="F"))
    m = k @ s
    del k
    m += m.T
    m *= -0.5
    s *= threshold
    m -= s
    del s
    return _negative_inertia(m)


def negative_count_study(surface, resolutions: Sequence,
                         threshold: float = 1e-3) -> StudyResult:
    """Track the count of negative eigenvalues under grid refinement.

    Parameters
    ----------
    surface : ParametricSurface
        Surface under study.
    resolutions : sequence
        At least 3 strictly increasing resolutions; each entry is an int n
        (meaning n x n) or an (n_u, n_v) pair.
    threshold : float
        Eigenvalues below -threshold are counted as negative; positive and
        finite.

    Returns
    -------
    StudyResult
        Rows of (n_nodes, count) and a trend classification: BOUNDED when
        the count is the same at the top two resolutions, GROWING when
        strictly increasing throughout, INCONCLUSIVE otherwise.

    Each count is that of the eigenvalues of the symmetrized double layer
    of ``symmetrized_spectrum`` below -threshold.  It is the sum over the
    blocks of the grid's mirror group of the inertia of
    -sym(K_b S_b) - threshold S_b (``_negative_count``), which needs only
    dense work of the block sizes, about n/8 on a catalog surface, the
    blocks running side by side with one BLAS thread per call, so on a
    grid with mirrors the counts do not depend on the BLAS thread count.
    A Cholesky factorization of each block of -S gates positivity; no
    ``min_eig_negS``, Plemelj residual or asymmetry diagnostic is computed.

    Raises
    ------
    ConfigError
        On fewer than 3 or non-increasing resolutions, an entry that is
        neither n nor a pair, a resolution that ``grids.check_resolution``
        rejects (raised before any grid is built), or a threshold that is
        not positive and finite.
    NotPositiveDefinite
        If -S is not positive definite on some grid.
    """
    if not 0 < threshold < np.inf:
        raise ConfigError(f"threshold must be positive and finite, "
                          f"got {threshold}")
    res = []
    for i, r in enumerate(resolutions):
        try:
            pair = tuple(r)
        except TypeError:       # not iterable: n means n x n
            pair = (r, r)
        if len(pair) != 2:
            raise ConfigError(f"resolutions[{i}]: expected n or (n_u, n_v), "
                              f"got {r!r}")
        check_resolution(*pair, f"resolutions[{i}]")
        res.append((int(pair[0]), int(pair[1])))
    if len(res) < 3:
        raise ConfigError("need at least 3 resolutions")
    sizes = [nu * nv for nu, nv in res]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("resolutions must be strictly increasing")
    rows = []
    for nu, nv in res:
        grid = build_grid(surface, nu, nv)
        rows.append((grid.n_nodes, _negative_count(grid, threshold)))
    counts = [c for _, c in rows]
    if all(b > a for a, b in zip(counts, counts[1:])):
        classification = GROWING
    elif counts[-1] == counts[-2]:
        classification = BOUNDED
    else:
        classification = INCONCLUSIVE
    return StudyResult(rows=rows, classification=classification,
                       threshold=float(threshold))

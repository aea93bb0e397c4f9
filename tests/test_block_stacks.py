"""The blocks as (K, S) stacks: one numpy call per stack and step.

``operators._split_blocks`` holds the blocks as (b, m, m) stacks, the
rotation modes as one stack pair and each mirror character as a stack of
one, and ``operators._batches`` cuts them into batches of slices that
copy no data.  Symmetrization (``operators._plemelj_symmetrize``) runs
each dense step as one numpy ``linalg`` call per slice.  These tests
check that the batches are views of the split, compare every block of
the stacked pass with a per-block scipy computation on the mode and
mirror ``CASES`` grids and the one-block route, check that a failing
block is named by its place in block order, also when LAPACK's own
factorization fails, and count the calls of a report: no ``svd``, and
every ``eigvalsh`` but that of a lone sym_b on two matrices or more.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.spatial.transform import Rotation

from npspectra import (NotPositiveDefinite, build_grid, ellipsoid,
                       mobius_invert, operators, rigid_transform, spectrum)
from npspectra.pipeline import compute_report

from conftest import make_config
from test_mirror_blocks import CASES as MIRROR_CASES, _without_turn
from test_mode_blocks import CASES as MODE_CASES


def _grid(case):
    kind, name = case
    if kind == "mode":
        make_surface, res = MODE_CASES[name]
        return build_grid(make_surface(), *res)
    make_surface, res, *_ = MIRROR_CASES[name]
    return _without_turn(make_surface(), *res)


def _blockwise(stacks):
    return [block for stack in stacks for block in stack]


def _pairs(stacks):
    return [pair for k, s in stacks for pair in zip(k, s)]


@pytest.mark.parametrize("case, entries, slices", [
    # the 13 modes of a 12x24 sphere, an even and an odd stack pair of
    # 6-node blocks, in batches of 5 blocks: the third batch takes the
    # last 3 even modes and the first 2 odd ones, a slice of each stack
    (("mode", "sphere-12x24"), 5 * 6 * 6,
     [[5], [5], [3, 2], [5], [5], [1]]),
    # the 8 mirror characters of a 16x32 ellipsoid, of 72, 64, 64, 56, 72,
    # 64, 64 and 56 nodes, a stack of one each, in two batches of 4
    (("mirror", "ellipsoid-16x32"), 72 ** 2 + 2 * 64 ** 2 + 56 ** 2,
     [[1] * 4] * 2),
], ids=["mode", "mirror"])
def test_batches_are_views_of_the_split_stacks(monkeypatch, case, entries,
                                               slices):
    monkeypatch.setattr(operators, "_BATCH_ENTRIES", entries)
    stacks, mult = spectrum._operator_blocks(_grid(case))
    assert sum(len(k) for k, _ in stacks) == len(mult)
    batches = operators._batches(stacks)
    assert [[len(k) for k, _ in batch] for batch in batches] == slices
    # each slice is a (b, m, m) stack pair sharing memory with the split,
    # and the batches hold every block once, in block order
    for k, s in (pair for batch in batches for pair in batch):
        assert k.ndim == s.ndim == 3 and k.shape == s.shape
    pairs = [pair for batch in batches for pair in _pairs(batch)]
    assert len(pairs) == len(mult)
    for (k, s), (k_ref, s_ref) in zip(pairs, _pairs(stacks)):
        assert k.shape == k_ref.shape and s.shape == s_ref.shape
        assert np.shares_memory(k, k_ref) and np.shares_memory(s, s_ref)


def _synthetic_stack(n_blocks, m, bad):
    """A (K, S) stack pair whose -S_b are positive definite but block
    ``bad``'s, which has one negative eigenvalue."""
    rng = np.random.default_rng(3)
    k = 0.1 * rng.standard_normal((n_blocks, m, m))
    a = rng.standard_normal((n_blocks, m, m))
    s = -(np.eye(m) + 0.1 * (a + np.swapaxes(a, 1, 2)))
    s[bad, 0, 0] = 2.0
    return k, s


def _count(batch):
    return [c for k, s in batch
            for c in spectrum._stack_negative_counts(k, s, 1e-3)]


def _layout(k, s, layout):
    if layout == "one-stack":
        return [(k, s)]
    return [(k[i:i + 1], s[i:i + 1]) for i in range(len(k))]


@pytest.mark.parametrize("fn", [operators._plemelj_symmetrize, _count],
                         ids=["symmetrize", "count"])
@pytest.mark.parametrize("layout", ["one-stack", "stacks-of-one"])
@pytest.mark.parametrize("per_batch", [6, 2, 1])
def test_a_failing_block_is_named_by_its_place_in_block_order(
        monkeypatch, fn, layout, per_batch):
    k, s = _synthetic_stack(6, 5, bad=3)
    monkeypatch.setattr(operators, "_BATCH_ENTRIES", per_batch * 25)
    stacks = _layout(k, s, layout)
    assert len(operators._batches(stacks)) == 6 // per_batch
    names = [f"mode {i}" for i in range(6)]
    with pytest.raises(NotPositiveDefinite, match=r"^mode 3: "):
        operators._map_blocks(fn, stacks, names)
    # without block 3 every block passes
    good = [0, 1, 2, 4, 5]
    operators._map_blocks(fn, _layout(k[good], s[good], layout), names)


@pytest.mark.parametrize("case", [("mode", name) for name in MODE_CASES]
                         + [("mirror", name) for name in MIRROR_CASES],
                         ids=lambda case: "-".join(case))
def test_stacked_pass_matches_a_per_block_scipy_computation(case):
    stacks, _ = spectrum._operator_blocks(_grid(case))
    for batch in operators._batches(stacks):
        eigs, svals, syms, norms = operators._plemelj_symmetrize(batch)
        min_eig, skew_norm, resid, s_norm = norms
        ref_neg_s, ref_skew, ref_resid = [], [], []
        for (k, s), eig, sval, sym in zip(_pairs(batch), _blockwise(eigs),
                                          _blockwise(svals),
                                          _blockwise(syms)):
            low = sla.cholesky(-s, lower=True)
            kt = sla.solve_triangular(low, k @ low, lower=True)
            ref_sym = 0.5 * (kt + kt.T)
            assert np.array_equal(sym, sym.T)
            assert np.abs(sym - ref_sym).max() <= 1e-13
            assert np.abs(eig - sla.eigvalsh(ref_sym)).max() <= 1e-13
            assert np.abs(sval - sla.svdvals(k)).max() <= 1e-13
            ref_neg_s.append(sla.eigvalsh(-s))
            ref_skew.append(sla.svdvals(0.5 * (kt - kt.T))[0])
            ks = k @ s
            ref_resid.append(sla.svdvals(ks.T - ks)[0])
        assert abs(min_eig - min(e[0] for e in ref_neg_s)) <= 1e-13
        assert abs(s_norm - max(e[-1] for e in ref_neg_s)) <= 1e-13
        # the Lanczos norms of the block diagonals, to their accuracy
        for got, want in ((skew_norm, max(ref_skew)),
                          (resid, max(ref_resid))):
            assert abs(got - want) <= 1e-12 * want


def test_a_report_makes_one_call_per_stack_and_step(monkeypatch):
    config = make_config(
        {"surface": {"name": "sphere"}, "resolution": [24, 48]})
    # a first report fills the Gauss-Legendre cache, whose leggauss calls
    # eigvalsh; the second calls it no more
    compute_report(config)
    calls = collections.Counter()

    def count(module, name):
        func = getattr(module, name)

        def counting(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, names in ((np.linalg, ("eigvalsh", "svd", "cholesky")),
                          (sla, ("eigvalsh", "svdvals", "cholesky")),
                          (operators, ("dpotrf",))):
        for name in names:
            count(module, name)
    compute_report(config)
    # the 25 rotation modes are one batch of two stacks, even and odd:
    # per stack one eigvalsh of -S and the Gram matrices and one of sym,
    # one in-place factor per mode, and no svd or scipy eigensolve
    assert calls == {"numpy.linalg.eigvalsh": 4,
                     "npspectra.operators.dpotrf": 50}


def test_each_eigensolve_but_sym_takes_two_matrices_or_more(monkeypatch):
    # numpy holds the GIL through an eigensolve of a stack whose matrix
    # count times m is at most 500, so the 8 mirror characters of the
    # 16x32 ellipsoid, of 56 to 72 nodes and a stack of one each, would
    # run their eigensolves one after another on the pool
    config = make_config(
        {"surface": {"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0},
         "resolution": [16, 32]})
    compute_report(config)
    stacks, _ = spectrum._operator_blocks(
        build_grid(ellipsoid(2.0, 1.2, 1.0), 16, 32))
    pairs = _pairs(stacks)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        calls.append(a.copy())
        return eigvalsh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    compute_report(config)
    # each block's -S_b and K_b^T K_b in one call, and its sym_b in another
    solves = {}
    for a in calls:
        block = next((i for i, (_, s) in enumerate(pairs)
                      if np.array_equal(a[0], -s)), None)
        solves.setdefault(block, []).append(a)
    syms = solves.pop(None)
    assert sorted(solves) == list(range(len(pairs)))
    for i, (k, s) in enumerate(pairs):
        (a,) = solves[i]
        assert a.shape == (2, *s.shape), i
        gram = k.T @ k
        assert np.abs(a[1] - gram).max() <= 1e-14 * np.abs(gram).max(), i
    # sym_b alone, a stack of one
    assert sorted(a.shape for a in syms) == sorted(
        (1, *s.shape) for _, s in pairs)


def test_an_indefinite_block_fails_its_factor(monkeypatch):
    # block 3's -S has a negative diagonal entry; with the eigenvalue gate
    # passed, LAPACK's own factorization reports it
    k, s = _synthetic_stack(6, 5, bad=3)
    eigvalsh, dpotrf = np.linalg.eigvalsh, operators.dpotrf
    infos = []

    def factor(a, *args, **kwargs):
        result = dpotrf(a, *args, **kwargs)
        infos.append(result[1])
        return result

    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: np.sort(np.abs(eigvalsh(a)), axis=-1))
    monkeypatch.setattr(operators, "dpotrf", factor)
    names = [f"mode {i}" for i in range(6)]
    with pytest.raises(NotPositiveDefinite,
                       match=r"^mode 3: Cholesky factorization of -S failed"):
        operators._map_blocks(operators._plemelj_symmetrize, [(k, s)], names)
    # the stack's first pass and the rerun of blocks 0 to 3
    assert infos == [0, 0, 0, 1, 0, 0, 0, 1]


@pytest.mark.parametrize("make_surface", [
    lambda: mobius_invert(ellipsoid(2.0, 1.2, 1.0), (3.0, 0.5, 0.4), 2.0),
    lambda: rigid_transform(
        ellipsoid(2.0, 1.2, 1.0),
        Rotation.from_rotvec([0.3, -0.5, 0.7]).as_matrix()),
], ids=["inverted-ellipsoid", "rotated-ellipsoid"])
def test_gram_singular_values_of_one_block(make_surface):
    # a grid that keeps no mirror is one block, K_w itself
    grid = build_grid(make_surface(), 12, 24)
    ((k, s),), _ = spectrum._operator_blocks(grid)
    assert k.shape[0] == 1
    _, (svals,), _, _ = operators._plemelj_symmetrize([(k, s)])
    assert np.abs(svals[0] - sla.svdvals(k[0])).max() <= 1e-13

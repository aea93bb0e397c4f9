"""The blocks of a batch as stacks: one numpy call per stack and step.

Symmetrization (``operators._plemelj_symmetrize``) groups the consecutive
blocks of one shape of a batch into (b, m, m) stacks (``operators._stacks``)
and runs each dense step as one numpy ``linalg`` call per stack.  These
tests check the grouping, compare every block of the stacked pass with a
per-block scipy computation on the mode and mirror ``CASES`` grids, and
count the calls of a report.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest
import scipy.linalg as sla

from npspectra import build_grid, operators, spectrum
from npspectra.pipeline import compute_report

from conftest import make_config
from test_mirror_blocks import CASES as MIRROR_CASES, _without_turn
from test_mode_blocks import CASES as MODE_CASES


def test_stacks_group_consecutive_blocks_of_one_shape():
    sizes = [3, 3, 2, 3, 4, 4]
    batch = [(np.full((m, m), i, dtype=float), np.full((m, m), -i - 0.5))
             for i, m in enumerate(sizes)]
    stacks = operators._stacks(batch)
    assert [(k.shape, s.shape) for k, s in stacks] == [
        ((2, 3, 3),) * 2, ((1, 2, 2),) * 2, ((1, 3, 3),) * 2,
        ((2, 4, 4),) * 2]
    blocks = [pair for k, s in stacks for pair in zip(k, s)]
    assert len(blocks) == len(batch)
    for (k, s), (k_ref, s_ref) in zip(blocks, batch):
        assert np.array_equal(k, k_ref) and np.array_equal(s, s_ref)
    # a block alone is a view of its own arrays, not a copy
    assert stacks[1][0].base is batch[2][0]
    assert stacks[1][1].base is batch[2][1]


def _grid(case):
    kind, name = case
    if kind == "mode":
        make_surface, res = MODE_CASES[name]
        return build_grid(make_surface(), *res)
    make_surface, res, *_ = MIRROR_CASES[name]
    return _without_turn(make_surface(), *res)


def _blockwise(stacks):
    return [block for stack in stacks for block in stack]


@pytest.mark.parametrize("case", [("mode", name) for name in MODE_CASES]
                         + [("mirror", name) for name in MIRROR_CASES],
                         ids=lambda case: "-".join(case))
def test_stacked_pass_matches_a_per_block_scipy_computation(case):
    blocks, _ = spectrum._operator_blocks(_grid(case))
    for batch in operators._batches(blocks):
        eigs, svals, syms, norms = operators._plemelj_symmetrize(batch)
        min_eig, skew_norm, resid, s_norm = norms
        ref_neg_s, ref_skew, ref_resid = [], [], []
        for (k, s), eig, sval, sym in zip(batch, _blockwise(eigs),
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
                          (sla, ("eigvalsh", "svdvals", "cholesky"))):
        for name in names:
            count(module, name)
    compute_report(config)
    # the 25 rotation modes are one batch and one stack: eigvalsh of -S
    # and of sym, one Cholesky and one svd of K, and no scipy eigensolve
    assert calls == {"numpy.linalg.eigvalsh": 2, "numpy.linalg.svd": 1,
                     "numpy.linalg.cholesky": 1}

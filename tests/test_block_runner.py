"""The blocks run in batches with one BLAS thread per call.

``operators._map_blocks`` cuts the blocks of a grid with mirrors or the
turn (mirror characters or rotation modes) into batches of consecutive
blocks (``operators._batches``) and runs the batches on a thread pool
while every OpenBLAS build is held at one thread
(``_blas.single_threaded``).  These tests check that the report bytes
then do not depend on the BLAS thread count, that the block calls see one
thread on a grid with several blocks and the process's count on a grid of
one block, that the counts come back afterwards, also when a block fails,
that the first failing block in block order raises and later batches are
not started, that a grid whose blocks form one batch starts no pool, and
that without a known OpenBLAS build the values stay the same.
Symmetrization takes the skew and the commutator norm of a batch in one
Lanczos run each, and a report cuts its blocks into batches once; the
values do not depend on how the blocks are batched.
"""
from __future__ import annotations

import concurrent.futures
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse.linalg as ssl

import npspectra
from npspectra import (NotPositiveDefinite, _blas, build_grid, ellipsoid,
                       mobius_invert, negative_count_study, operators,
                       peanut, spectrum, sphere, torus)
from npspectra.pipeline import compute_report

from conftest import make_config

_SPHERE_12 = {"surface": {"name": "sphere"}, "resolution": [12, 24]}

# prints the two deterministic report files of one config
_REPORT_SCRIPT = """
import sys
from npspectra import __version__, parse_config
from npspectra.pipeline import compute_report
from npspectra.report import render_eigen_csv, render_report_json
config = parse_config(sys.argv[1])
report, _ = compute_report(config)
sys.stdout.write(render_report_json(report, config.echo(), __version__))
sys.stdout.write(render_eigen_csv(report))
"""


def _report_bytes(config_text, blas_threads):
    src = os.path.dirname(os.path.dirname(npspectra.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _REPORT_SCRIPT,
                             config_text], capture_output=True, env=env,
                            timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_report_bytes_do_not_depend_on_blas_threads():
    # at 16x32 and below OpenBLAS keeps every block call on one thread, so
    # only a larger grid shows a thread-count dependence
    config = '{"surface": {"name": "sphere"}, "resolution": [24, 48]}'
    assert _report_bytes(config, 1) == _report_bytes(config, 2)


@pytest.fixture()
def two_blas_threads():
    """Every OpenBLAS build at two threads, so a restore is observable."""
    builds = _blas._builds()
    if not builds:
        pytest.skip("no OpenBLAS build found in this process")
    saved = _blas.thread_counts()
    for _, put in builds:
        put(2)
    try:
        yield (2,) * len(builds)
    finally:
        for (_, put), count in zip(builds, saved):
            put(count)


def test_blocks_run_on_one_blas_thread_and_the_counts_return(
        two_blas_threads, monkeypatch):
    config = make_config(_SPHERE_12)
    # a first report fills the Gauss-Legendre cache, whose leggauss calls
    # eigvalsh; the second calls it no more
    compute_report(config)
    seen = []

    def recording(module, name):
        call = getattr(module, name)

        def recorded(*args, **kwargs):
            seen.append((name, _blas.thread_counts()))
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    # numpy's eigensolves and scipy's in-place factors, one per build
    recording(np.linalg, "eigvalsh")
    recording(operators, "dpotrf")
    compute_report(config)
    # per stack, even and odd, of the rotation modes m = 0 .. 12 of the
    # 12x24 sphere: one eigvalsh of -S and the Gram matrices, one of sym,
    # and one factor per mode
    assert sorted(name for name, _ in seen) == \
        ["dpotrf"] * 26 + ["eigvalsh"] * 4
    assert {counts for _, counts in seen} == {(1,) * len(two_blas_threads)}
    assert _blas.thread_counts() == two_blas_threads


@pytest.mark.parametrize("make_grid, n_blocks, n_stacks", [
    # the sphere takes the 13 rotation modes, split by the z-mirror into
    # an even and an odd stack; the ellipsoid its
    # 8 mirror characters of 42, 36, 36, 30, 42, 36, 36 and 30 nodes, a
    # stack of one each
    (lambda: build_grid(sphere(), 12, 24), 26, 2),
    (lambda: build_grid(ellipsoid(2.0, 1.2, 1.0), 12, 24), 8, 8),
    (lambda: build_grid(mobius_invert(sphere(), (3.0, 0.5, 0.2)), 12, 24),
     1, 1),
], ids=["mirrored", "mirror-characters", "without-mirrors"])
def test_only_a_grid_with_mirrors_pins_one_thread(two_blas_threads,
                                                  monkeypatch, make_grid,
                                                  n_blocks, n_stacks):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        seen.append(_blas.thread_counts())
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    spectrum.symmetrized_spectrum(make_grid())
    # symmetrization calls eigvalsh once per stack for -S, once for sym
    assert len(seen) == 2 * n_stacks
    pinned = (1,) * len(two_blas_threads)
    assert set(seen) == {pinned if n_blocks > 1 else two_blas_threads}
    assert _blas.thread_counts() == two_blas_threads


def _fail_blocks(monkeypatch, grid, failing):
    """Make the factorization of the -S of a block in ``failing`` fail: its
    in-place ``dpotrf``, in a report's symmetrization and in a study's
    counts alike, returns a nonzero ``info``."""
    stacks, _ = spectrum._operator_blocks(grid)
    neg_s = [-b for _, s in stacks for b in s]
    dpotrf = operators.dpotrf

    def index(block):
        return next(i for i, m in enumerate(neg_s) if np.array_equal(block, m))

    def injected_factor(a, *args, **kwargs):
        # a is the Fortran view of the C-ordered block
        if index(a.T) in failing:
            return a, 1
        return dpotrf(a, *args, **kwargs)

    monkeypatch.setattr(operators, "dpotrf", injected_factor)


@pytest.mark.parametrize("run", [
    lambda: compute_report(make_config(_SPHERE_12)),
    lambda: negative_count_study(sphere(), [(12, 24), (14, 28), (16, 32)]),
], ids=["report", "study"])
def test_a_failing_block_raises_its_typed_error(two_blas_threads,
                                                monkeypatch, run):
    # modes 2 and 7 of the 13 even rotation modes of the 12x24 sphere
    _fail_blocks(monkeypatch, build_grid(sphere(), 12, 24), {2, 7})
    # the first failing block in block order, whichever worker ran first
    with pytest.raises(NotPositiveDefinite,
                       match="mode 2 even: Cholesky factorization of -S "
                             "failed"):
        run()
    assert _blas.thread_counts() == two_blas_threads


def _two_cpus(monkeypatch):
    """Two pool workers, whatever the CPU count of the machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_blocks_after_a_failure_are_not_started(monkeypatch):
    _two_cpus(monkeypatch)
    # each of the 8 one-entry blocks of one stack is a batch of its own
    monkeypatch.setattr(operators, "_BATCH_ENTRIES", 1)
    blocks = [(np.zeros((8, 1, 1)), np.arange(8))]
    started = []

    def run(batch):
        ((_, (index,)),) = batch
        started.append(index)
        if index == 0:
            raise ValueError("block 0 failed")
        time.sleep(0.2)
        return index

    with pytest.raises(ValueError, match="block 0 failed"):
        operators._map_blocks(run, blocks, "block")
    # only the batches already running when block 0 failed; without the
    # cancel the pool would run all 8 before the error is raised
    assert len(started) < 8


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


@pytest.mark.parametrize("run", [
    lambda: compute_report(make_config(
        {"surface": {"name": "sphere"}, "resolution": [24, 48]})),
    lambda: spectrum.symmetrized_spectrum(build_grid(sphere(), 24, 48)),
    lambda: negative_count_study(peanut(),
                                 [(16, 32), (24, 48), (32, 64)]),
], ids=["report", "symmetrized-spectrum", "study"])
def test_blocks_of_one_batch_start_no_pool(monkeypatch, run):
    # the 25 modes of the 24x48 sphere and the modes of each study level
    # form one batch, so no step needs a pool even with two CPUs
    _two_cpus(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _NoPool)
    run()


def test_report_without_openblas_builds_keeps_its_values(monkeypatch):
    config = make_config(_SPHERE_12)
    ref, ref_sym = compute_report(config)
    monkeypatch.setattr(_blas, "_builds", lambda: ())
    report, sym = compute_report(config)
    for key in ("lambda_plus", "lambda_minus", "singular_values"):
        np.testing.assert_allclose(getattr(report, key), getattr(ref, key),
                                   rtol=0, atol=1e-13, err_msg=key)
    np.testing.assert_allclose(sym.matrix, ref_sym.matrix, rtol=0,
                               atol=1e-13)
    assert report.diagnostics.keys() == ref.diagnostics.keys()
    for key, value in ref.diagnostics.items():
        assert abs(report.diagnostics[key] - value) <= 1e-12 * abs(value), key


@pytest.mark.parametrize("make_grid", [
    lambda: build_grid(sphere(), 24, 48),
    lambda: build_grid(torus(), 16, 16),
    lambda: build_grid(ellipsoid(2.0, 1.2, 1.0), 16, 32),
], ids=["sphere-24x48", "torus-16x16", "ellipsoid-16x32"])
def test_values_do_not_depend_on_the_batching(monkeypatch, make_grid):
    grid = make_grid()
    stacks, _ = spectrum._operator_blocks(grid)
    runs = []
    # every block alone, then all of them in one batch
    n_blocks = sum(len(k) for k, _ in stacks)
    for entries, n_batches in ((1, n_blocks), (1 << 40, 1)):
        monkeypatch.setattr(operators, "_BATCH_ENTRIES", entries)
        assert len(operators._batches(stacks)) == n_batches
        runs.append(spectrum.symmetrized_spectrum(grid))
    (alone, alone_svals, alone_sym), (batched, batched_svals,
                                      batched_sym) = runs
    assert np.array_equal(alone, batched)
    assert np.array_equal(alone_svals, batched_svals)
    assert np.array_equal(alone_sym.rows, batched_sym.rows)
    for key, value in alone_sym.diagnostics.items():
        assert abs(batched_sym.diagnostics[key] - value) \
            <= 1e-13 * abs(value), key


@pytest.mark.parametrize("spec, calls", [
    # the 25 rotation modes form one batch: one run each for the skew and
    # the commutator norm; the norms of S, K and sym come from the
    # eigvalsh of -S, the svdvals of K and the eigvalsh of sym
    ({"surface": {"name": "sphere"}, "resolution": [24, 48]}, 2),
    # each of the 8 mirror characters is a batch of its own
    ({"surface": {"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0},
      "resolution": [40, 80]}, 16),
], ids=["sphere-24x48", "ellipsoid-40x80"])
def test_lanczos_runs_per_report(monkeypatch, spec, calls):
    seen = []
    eigsh = ssl.eigsh

    def counting(*args, **kwargs):
        seen.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(ssl, "eigsh", counting)
    compute_report(make_config(spec))
    assert len(seen) == calls


def test_report_cuts_its_blocks_into_batches_once(monkeypatch):
    # symmetrization, eigenvalues, singular values and diagnostics all come
    # from one pass over the batches
    seen = []
    batches = operators._batches

    def counting(stacks):
        seen.append(len(stacks))
        return batches(stacks)

    monkeypatch.setattr(operators, "_batches", counting)
    compute_report(make_config(
        {"surface": {"name": "ellipsoid", "a": 2.0, "b": 1.2, "c": 1.0},
         "resolution": [12, 24]}))
    assert seen == [8]

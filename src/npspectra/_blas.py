"""One BLAS thread per call while the blocks of a grid run in batches.

numpy and scipy each load their own OpenBLAS build (numpy's ILP64
``libscipy_openblas64_``, scipy's ``libscipy_openblas``), and each defaults
to one thread per CPU.  The blocks of a grid's symmetry (its rotation
modes or mirror characters) are small and independent: below about 800
rows a LAPACK call is faster on one thread than on two, and a
single-threaded call gives the same bits whatever the CPU count.  So
``operators._map_blocks`` holds every build at one thread while it runs
the batches of a grid of several blocks, inline when they form one batch
and otherwise side by side.  The pin covers both builds: the stacked
eigensolves and products of a batch are numpy calls, which run in
numpy's build, while the per-block Cholesky factors of -S_b, those of a
report's symmetrization and of a study's counts alike
(``operators._factor_neg_s``), and the triangular solves run in scipy's
and hold the GIL.  numpy's ``matmul`` releases the
GIL at every size, but its ``eigvalsh`` and ``svd`` hold it on a stack
whose matrix count times m is at most 500, such as one block of a few
hundred rows.  So symmetrization solves each slice's -S_b and Gram
matrices as one stack of twice its blocks, and the solves of two
batches run at once (``operators._cholesky_similarity``).

The builds are looked up once, on first use, among the shared objects
mapped into the process.  Where none is found (another BLAS, or a system
without ``/proc/self/maps``) ``single_threaded`` does nothing: results stay
correct and only that speed-up and CPU-count independence are lost.
"""
from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

# (get, set) thread-count symbols: scipy's wheel builds prefix them, and
# the ILP64 builds add a "64_" suffix
_SYMBOLS = tuple((f"{prefix}_get_num_threads{suffix}",
                  f"{prefix}_set_num_threads{suffix}")
                 for prefix in ("scipy_openblas", "openblas")
                 for suffix in ("64_", ""))


@functools.cache
def _builds() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS build loaded."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    builds = []
    for path in paths:
        try:
            # only a library that is already loaded, never a new copy
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                builds.append((get, put))
                break
    return tuple(builds)


def thread_counts() -> tuple:
    """The current thread count of each OpenBLAS build, in lookup order."""
    return tuple(get() for get, _ in _builds())


@contextmanager
def single_threaded():
    """Run the body with every OpenBLAS build at one thread.

    Saves the counts on entry and writes them back on exit, also when the
    body raises.  The count is process state: while the body runs, BLAS
    calls on every other thread of the process run on one thread too, and
    a count that another thread sets in the meantime is overwritten on
    exit.
    """
    saved = thread_counts()
    for _, put in _builds():
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(_builds(), saved):
            put(count)

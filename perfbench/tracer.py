"""Outside-in tracer: spans around calls into the pipeline's public names.

The tracer replaces public functions at the module attributes where their
callers look them up (``npspectra.pipeline.*``, ``npspectra.spectrum.*``,
``npspectra.operators.plemelj_residual`` and the dense LAPACK routines on
``scipy.linalg`` / ``numpy.linalg``), so nothing under ``src/`` carries
tracing code.  Each span records its name, start, end, parent and
operation id, plus the traced allocation peak (``tracemalloc``) above the
memory in use when it opened.  Spans stay in memory until the run ends.

Wrappers exist only inside ``with Tracer(...)``; leaving the block puts
every original function back and stops ``tracemalloc``.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg
import scipy.linalg

from npspectra import (TopologyWarning, euler_characteristic, operators,
                       pipeline, spectrum)

MIB = 2.0 ** 20

# Layer of each wrapped public name.  Names absent here are pipeline glue:
# their time outside child spans is pipeline self time.
LAYER = {
    "build_grid": "geometry",
    "weyl_coefficients_signed": "geometry",
    "assemble_operators": "assembly",
    "to_weighted_l2": "assembly",
    "symmetrize": "symmetrize",
    "plemelj_residual": "symmetrize",
    "eigh": "spectrum",
    "cholesky": "spectrum",
    "eigvalsh": "spectrum",
    "svdvals": "spectrum",
    "eigvals": "spectrum",
    "split_spectrum": "spectrum",
    "cluster_multiplicities": "spectrum",
    "weyl_fit": "spectrum",
    "plasmon_map": "spectrum",
    "counting_function": "spectrum",
    "default_fit_window": "spectrum",
    "write_outputs": "output",
    "render_report_json": "output",
    "render_eigen_csv": "output",
    "write_text": "output",
    "dump_operator": "output",
}
LAYERS = ("geometry", "assembly", "symmetrize", "spectrum", "output")

# per-layer metric -> (unit, better); ``layer_metrics`` returns these keys
PER_LAYER = {
    "geometry.busy_s": ("s", "lower"),
    "geometry.calls": ("count", "lower"),
    "geometry.gauss_bonnet_defect": ("1", "lower"),
    "assembly.busy_s": ("s", "lower"),
    "assembly.calls": ("count", "lower"),
    "assembly.peak_alloc_mib": ("MiB", "lower"),
    "assembly.output_mib": ("MiB", "lower"),
    "assembly.alloc_over_output": ("ratio", "lower"),
    "assembly.k1_defect": ("1", "lower"),
    "symmetrize.busy_s": ("s", "lower"),
    "symmetrize.negS_factor_s": ("s", "lower"),
    "symmetrize.plemelj_s": ("s", "lower"),
    "symmetrize.peak_alloc_mib": ("MiB", "lower"),
    "symmetrize.min_eig_negS": ("1", "higher"),
    "symmetrize.plemelj_residual": ("1", "lower"),
    "symmetrize.asymmetry_norm": ("1", "lower"),
    "spectrum.busy_s": ("s", "lower"),
    "spectrum.eigvalsh_s": ("s", "lower"),
    "spectrum.svdvals_s": ("s", "lower"),
    "spectrum.raw_eigvals_s": ("s", "lower"),
    "spectrum.post_s": ("s", "lower"),
    "spectrum.peak_alloc_mib": ("MiB", "lower"),
    "output.busy_s": ("s", "lower"),
    "output.bytes": ("bytes", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "la.calls": ("count", "lower"),
    "la.flops_computed": ("flop", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _n(a):
    return int(np.shape(a)[0])


# Dense LAPACK flop counts from the argument shape (Golub & Van Loan,
# Matrix Computations, 4th ed.): symmetric eigenvalues 4n^3/3, with
# eigenvectors 9n^3; Cholesky n^3/3; singular values of a square matrix
# 8n^3/3; nonsymmetric eigenvalues by Hessenberg QR 10n^3.
def _eigh_flops(a, *args, **kw):
    n = _n(a)
    return 4 * n ** 3 / 3 if kw.get("eigvals_only") else 9 * n ** 3


LAPACK_FLOPS = {
    "eigh": _eigh_flops,
    "eigvalsh": lambda a, *args, **kw: 4 * _n(a) ** 3 / 3,
    "cholesky": lambda a, *args, **kw: _n(a) ** 3 / 3,
    "svdvals": lambda a, *args, **kw: 8 * _n(a) ** 3 / 3,
    "eigvals": lambda a, *args, **kw: 10 * _n(a) ** 3,
}


def _grid_health(result):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TopologyWarning)
        chi = euler_characteristic(result)
    return {"n_nodes": result.n_nodes, "chi_defect": abs(chi - round(chi))}


def _assembly_health(result):
    k_op = result[0]
    ones = np.ones(k_op.n)
    return {"n": k_op.n,
            "k1_defect": float(np.max(np.abs(k_op.matrix @ ones - 0.5)))}


def _symmetrize_health(result):
    return {key: float(result.diagnostics[key])
            for key in ("min_eig_negS", "plemelj_residual", "asymmetry_norm")}


def _output_health(result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# Small health numbers read from a result right after its span closes;
# no result is kept, so the tracer holds no matrices alive.
OBSERVERS = {
    "build_grid": _grid_health,
    "assemble_operators": _assembly_health,
    "symmetrize": _symmetrize_health,
    "write_outputs": _output_health,
}


def default_targets():
    """(module, attribute) pairs the tracer wraps."""
    targets = []
    for mod in (pipeline, spectrum):
        for name, obj in sorted(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__.startswith("npspectra")):
                targets.append((mod, name))
    targets.append((operators, "plemelj_residual"))
    for name in ("eigh", "cholesky", "eigvalsh", "svdvals"):
        targets.append((scipy.linalg, name))
    targets.append((numpy.linalg, "eigvals"))
    return targets


@dataclass
class Span:
    name: str
    op_id: int
    parent: int            # index into Tracer.spans, -1 for an op root
    start: float
    end: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_alloc(self) -> int:
        return self.peak_bytes - self.base_bytes


class Tracer:
    """Install wrappers, record spans, and restore the originals on exit."""

    def __init__(self, targets=None):
        self.targets = default_targets() if targets is None else targets
        self.spans = []
        self._stack = []
        self._saved = []
        self._op_id = -1

    # -------------------------------------------------------- install/remove
    def __enter__(self):
        tracemalloc.start()
        for mod, name in self.targets:
            orig = getattr(mod, name)
            self._saved.append((mod, name, orig))
            setattr(mod, name, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()
        tracemalloc.stop()
        return False

    # -------------------------------------------------------- spans
    def _fold_peak(self):
        """Credit the peak since the last event to every open span."""
        cur, peak = tracemalloc.get_traced_memory()
        for idx in self._stack:
            span = self.spans[idx]
            span.peak_bytes = max(span.peak_bytes, peak)
        tracemalloc.reset_peak()
        return cur

    def _open(self, name):
        cur = self._fold_peak()
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self._op_id, parent, time.perf_counter(),
                    base_bytes=cur, peak_bytes=cur)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._fold_peak()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """One benchmark operation: the root span of its call tree."""
        self._op_id = op_id
        span = self._open("op")
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, func):
        flops = LAPACK_FLOPS.get(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if flops is not None:
                span.info["flops"] = flops(*args, **kwargs)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                try:
                    span.info.update(observe(result))
                except Exception as exc:  # a refactored result shape
                    span.info["observer_error"] = repr(exc)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def records(self):
        """Spans as plain dicts, for writing out at the end of a run."""
        return [{"id": i, "name": s.name, "op": s.op_id, "parent": s.parent,
                 "start": s.start, "end": s.end,
                 "peak_alloc_bytes": s.peak_alloc, **s.info}
                for i, s in enumerate(self.spans)]


# ------------------------------------------------------------------ metrics
def layer_metrics(spans, root: int) -> dict:
    """Per-layer metrics of the operation whose root span index is ``root``.

    A span's layer is that of its outermost layered ancestor (itself
    included), so eigh inside symmetrize is symmetrize time.  Layer busy
    time sums the outermost spans of each layer; ``pipeline.self_s`` is the
    rest of the operation, so busy times plus self time equal the op time.
    """
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    layer_of = {}
    tops = {layer: [] for layer in LAYERS}

    def walk(i, inherited):
        layer = inherited or LAYER.get(spans[i].name)
        if layer and not inherited:
            tops[layer].append(i)
        layer_of[i] = layer
        for c in children.get(i, ()):
            walk(c, layer)

    for c in children.get(root, ()):
        walk(c, None)
    members = {layer: [i for i, l in layer_of.items() if l == layer]
               for layer in LAYERS}

    def busy(layer):
        return sum(spans[i].duration for i in tops[layer])

    def peak_mib(layer):
        return max((spans[i].peak_alloc for i in tops[layer]), default=0) / MIB

    def named(layer, *names):
        return [spans[i] for i in members[layer] if spans[i].name in names]

    def last_info(layer, name, key):
        vals = [s.info[key] for s in named(layer, name) if key in s.info]
        return vals[-1] if vals else 0.0

    def time_in(layer, *names):
        return sum(s.duration for s in named(layer, *names))

    op_s = spans[root].duration
    busy_total = sum(busy(layer) for layer in LAYERS)
    asm = named("assembly", "assemble_operators")
    asm_peak = peak_mib("assembly")
    n_max = max((s.info.get("n", 0) for s in asm), default=0)
    output_mib = 16.0 * n_max ** 2 / MIB
    spec_lapack = time_in("spectrum", *LAPACK_FLOPS)
    lapack = [s for i, s in enumerate(spans)
              if i in layer_of and s.name in LAPACK_FLOPS]
    return {
        "geometry.busy_s": busy("geometry"),
        "geometry.calls": len(members["geometry"]),
        "geometry.gauss_bonnet_defect": max(
            (s.info.get("chi_defect", 0.0) for s in named(
                "geometry", "build_grid")), default=0.0),
        "assembly.busy_s": busy("assembly"),
        "assembly.calls": len(members["assembly"]),
        "assembly.peak_alloc_mib": asm_peak,
        "assembly.output_mib": output_mib,
        "assembly.alloc_over_output": asm_peak / output_mib if n_max else 0.0,
        "assembly.k1_defect": max((s.info.get("k1_defect", 0.0)
                                   for s in asm), default=0.0),
        "symmetrize.busy_s": busy("symmetrize"),
        "symmetrize.negS_factor_s": time_in("symmetrize", "eigh",
                                            "cholesky"),
        "symmetrize.plemelj_s": time_in("symmetrize", "plemelj_residual"),
        "symmetrize.peak_alloc_mib": peak_mib("symmetrize"),
        "symmetrize.min_eig_negS": last_info("symmetrize", "symmetrize",
                                             "min_eig_negS"),
        "symmetrize.plemelj_residual": last_info(
            "symmetrize", "symmetrize", "plemelj_residual"),
        "symmetrize.asymmetry_norm": last_info(
            "symmetrize", "symmetrize", "asymmetry_norm"),
        "spectrum.busy_s": busy("spectrum"),
        "spectrum.eigvalsh_s": time_in("spectrum", "eigvalsh"),
        "spectrum.svdvals_s": time_in("spectrum", "svdvals"),
        "spectrum.raw_eigvals_s": time_in("spectrum", "eigvals"),
        "spectrum.post_s": busy("spectrum") - spec_lapack,
        "spectrum.peak_alloc_mib": peak_mib("spectrum"),
        "output.busy_s": busy("output"),
        "output.bytes": sum(s.info.get("bytes", 0)
                            for s in named("output", "write_outputs")),
        "pipeline.self_s": op_s - busy_total,
        "la.calls": len(lapack),
        "la.flops_computed": float(sum(s.info["flops"] for s in lapack)),
        "trace.op_s": op_s,
    }

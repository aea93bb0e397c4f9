"""Benchmark harness: environment record, set-up timing, the operation loop.

``execute`` runs one workload for one seed and returns the result line
(``correct``, ``attempted``, ``failed``, ``metrics``); the caller has put
the checkout's ``src/`` on ``sys.path`` first.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
import scipy

import tracer as tracing
import workloads
from npspectra import parse_config

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

# a fresh interpreter until ready: import the package, parse the config
# (which builds the surface), then report ready on stdout
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import npspectra; npspectra.parse_config(sys.argv[2]); "
               "print('ready', flush=True)")

# end-to-end metric -> unit; every one is lower-is-better
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


# ------------------------------------------------------------------ environment
def _blas_libraries():
    """Loaded OpenBLAS builds with their configuration and thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = int(threads())
                if config is not None and "vendor" not in info:
                    config.restype = ctypes.c_char_p
                    info["vendor"] = config().decode()
        libs.append(info)
    return libs


def environment(nproc: int) -> dict:
    blas = _blas_libraries()
    threads = [b["threads"] for b in blas if "threads" in b]
    return {
        "nproc": nproc,
        "blas": blas,
        "blas_threads": max(threads) if threads else None,
        "blas_threads_exceed_nproc": bool(threads) and max(threads) > nproc,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ------------------------------------------------------------------ measuring
def measure_setup(config_text: str) -> list:
    """Seconds from spawning a fresh interpreter until it is ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), config_text],
            stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


class OperationLog:
    """Per-operation times and check results for one run."""

    def __init__(self, workload, config, workdir):
        self.workload = workload
        self.config = config
        self.workdir = workdir
        self.records = []
        self.accuracy = {}
        # peak RSS through the first operation, before the benchmark's own
        # checks allocate (reading the 78 MiB dump back) and before repeats
        # add allocator fragmentation
        self.first_rss_mib = None
        self._digest = None

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)

    def run(self, tracer=None):
        """Run, time and check one operation; keeps no large result."""
        extra = []
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workloads.run_operation(self.workload, self.config,
                                                  self.workdir)
            else:
                op_id = len(self.records)
                with tracer.operation(op_id):
                    outcome = workloads.run_operation(
                        self.workload, self.config, self.workdir)
                extra.append(_k1_check(tracer, op_id))
        except Exception:
            outcome = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if self.first_rss_mib is None:
            self.first_rss_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if outcome is None:
            self.records.append({"seconds": elapsed, "ok": False,
                                 "error": error})
            return elapsed
        checks = workloads.run_checks(outcome, extra)
        digest = workloads.output_digest(outcome)
        if self._digest is None:
            self._digest = digest
        checks.append(("identical_outputs", digest == self._digest,
                       digest[:16]))
        self.accuracy = workloads.accuracy(outcome)
        self.records.append({
            "seconds": elapsed, "traced": tracer is not None,
            "ok": all(ok for _, ok, _ in checks),
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in checks]})
        return elapsed


def _k1_check(tracer, op_id):
    """K 1 = 1/2 on every K the traced operation assembled."""

    def check_k1(_outcome):
        defects = [s.info["k1_defect"] for s in tracer.spans
                   if s.op_id == op_id and "k1_defect" in s.info]
        worst = max(defects, default=float("inf"))
        return worst <= workloads.K1_TOL, f"max |K 1 - 1/2| {worst:.1e}"

    return check_k1


def run_untraced(log, seconds):
    start = time.perf_counter()
    while not log.records or time.perf_counter() - start < seconds:
        log.run()
    times = [r["seconds"] for r in log.records]
    return {"op_s": statistics.median(times),
            "peak_rss_mib": log.first_rss_mib}


def run_traced(log):
    untraced = log.run()
    with tracing.Tracer() as tr:
        traced = log.run(tr)
    # the traced operation's root is the first span of a fresh tracer
    metrics = tracing.layer_metrics(tr.spans, 0)
    metrics["trace.overhead_s"] = traced - untraced
    return metrics, tr.records()


def execute(wl, seconds: float, trace: bool, seed: int = 0,
            out_dir: Path = OUT) -> dict:
    """Run one workload, print its report and return the result line."""
    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    print("environment " + json.dumps(env), flush=True)
    if env["blas_threads_exceed_nproc"]:
        print(f"warning: {env['blas_threads']} BLAS threads on {nproc} CPUs",
              file=sys.stderr)
    print("config " + wl.config_text(), flush=True)
    setup = [] if trace else measure_setup(wl.config_text())
    config = parse_config(wl.config_text())

    out_dir.mkdir(exist_ok=True)
    spans = []
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
        log = OperationLog(wl, config, workdir)
        if trace:
            values, spans = run_traced(log)
            units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        else:
            values = run_untraced(log, seconds)
            values["setup_s"] = statistics.median(setup)
            units = END_TO_END

    attempted = len(log.records)
    for i, rec in enumerate(log.records):
        bad = [c["name"] for c in rec.get("checks", []) if not c["ok"]]
        status = "ok" if rec["ok"] else "FAILED " + (
            ", ".join(bad) or rec["error"].strip().splitlines()[-1])
        print(f"op {i}: {rec['seconds']:.3f} s"
              f"{' traced' if rec.get('traced') else ''} {status}")
    lines = {k: (v, units[k]) for k, v in values.items()}
    lines["error_rate"] = (log.failed / attempted, "ratio")
    lines.update({k: (v, "1") for k, v in log.accuracy.items()})
    for name, (value, unit) in lines.items():
        print(f"{name} = {value:.6g} {unit}")

    result = {"correct": log.failed == 0, "attempted": attempted,
              "failed": log.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    record = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "config": wl.doc, "environment": env, "setup_s": setup,
              "operations": log.records, "accuracy": log.accuracy,
              "result": result, "spans": spans}
    out_file = out_dir / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    return result

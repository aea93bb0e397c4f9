#!/usr/bin/env python3
"""npspectra benchmark: one workload in one closed-loop process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` and nowhere else, so without the sources the run exits non-zero.
One operation runs at a time, each only after the previous one and its
output checks finished.  BLAS threads default to the CPUs this process may
use.

``--trace 0`` runs operations untraced, at least one, until ``--seconds``
have passed, and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and then one traced operation and reports the per-layer metrics
of the traced one.  Repeated operations in a run must give byte-identical
outputs.
An operation that raises or fails an output check counts as failed.  The
last stdout line is the JSON result; the lines before it, and the record
written to ``perfbench/out/``, hold the environment, accuracy figures,
check details and (traced) spans.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("ellipsoid-report", "peanut-study", "sphere-report")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "npspectra"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no npspectra sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy loads BLAS
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path[:0] = [str(SRC), str(HERE)]
    import npspectra
    if Path(npspectra.__file__).resolve().parent != package.resolve():
        print(f"perfbench: npspectra imported from {npspectra.__file__}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    wl = workloads.make_workload(args.workload, args.seed)
    result = harness.execute(wl, args.seconds, bool(args.trace), args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

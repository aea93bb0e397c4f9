"""The three benchmark workloads: seeded configs, the operation, output checks.

Each workload is one call pattern into the public pipeline entry points.
Seed 0 gives the fixed reference configs; other seeds rescale the surface
within a range on which every output check below has been seen to hold
(see README.md), so a failed check is a program fault, never an input that
was out of range.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from npspectra import operators, pipeline, spectrum

ELLIPSOID_AXES = (2.0, 1.2, 1.0)
PEANUT_C, PEANUT_D = 1.0, 1.1
# Seeds other than 0 scale the surface by a factor drawn log-uniform from
# this range.  The spectrum, the curvature functionals and the near-field
# pair structure are scale-invariant, so the inputs differ while the work
# and every expected output stay the same.  Changing the shape instead
# (ellipsoid aspect, peanut d) changes the near-pair count, which spread
# the ellipsoid's peak RSS over 944-1114 MiB between seeds.
SCALE_RANGE = (0.5, 2.0)

STUDY_RESOLUTIONS = ((16, 32), (24, 48), (32, 64))

# sphere ladder 1/(2(2k+1)) with multiplicity 2k+1, k = 0..3
LADDER = tuple((1.0 / (2 * (2 * k + 1)), 2 * k + 1) for k in range(4))
LADDER_TOL = 1e-2
# The top eigenvalue of the symmetrized matrix moves off 1/2 by second
# order in the skew part that symmetrize discards (asymmetry_norm ~ 6e-4
# here), so it is checked at 1e-6; K 1 = 1/2 itself is checked to 1e-12 on
# the assembled K in the traced run, the only place K is visible.
TOP_EIG_TOL = 1e-6
K1_TOL = 1e-12
CHI_TOL = 1e-6
A_SUM_TOL = 1e-6                 # as in the acceptance tests


@dataclass
class Workload:
    """One workload: a config document, its kind and its output checks."""

    name: str
    kind: str                    # "report" or "study"
    doc: dict
    resolutions: tuple = ()      # study levels
    checks: list = field(default_factory=list)

    def config_text(self) -> str:
        return json.dumps(self.doc, sort_keys=True)


def seed_scale(seed: int) -> float:
    """Scale factor of a seed: 1 for seed 0, else log-uniform in range."""
    if not seed:
        return 1.0
    lo, hi = SCALE_RANGE
    return round(lo * (hi / lo) ** random.Random(seed).random(), 6)


def make_workload(name: str, seed: int) -> Workload:
    """Build the named workload for a seed; seed 0 is the reference config."""
    scale = seed_scale(seed)
    if name == "ellipsoid-report":
        a, b, c = (scale * x for x in ELLIPSOID_AXES)
        doc = {"surface": {"name": "ellipsoid", "a": a, "b": b, "c": c},
               "resolution": [40, 80],
               "outputs": [{"report_json": "report.json"},
                           {"eigen_csv": "eigen.csv"},
                           {"matrix_dump": "operator.npop"}]}
        return Workload(name, "report", doc,
                        checks=[check_top_eigenvalue, check_coefficients,
                                check_matrix_dump])
    if name == "peanut-study":
        doc = {"surface": {"name": "peanut", "c": scale * PEANUT_C,
                           "d": PEANUT_D},
               "resolution": list(STUDY_RESOLUTIONS[-1])}
        return Workload(name, "study", doc, resolutions=STUDY_RESOLUTIONS,
                        checks=[check_growing])
    if name == "sphere-report":
        doc = {"surface": {"name": "sphere", "r": scale},
               "resolution": [24, 48],
               "outputs": [{"report_json": "report.json"},
                           {"eigen_csv": "eigen.csv"}]}
        return Workload(name, "report", doc,
                        checks=[check_ladder, check_top_eigenvalue,
                                check_coefficients])
    raise KeyError(name)


# ------------------------------------------------------------------ operation
@dataclass
class Outcome:
    """What one operation produced, as far as the checks need it."""

    workload: Workload
    config: object
    workdir: str
    report: object = None
    sym: object = None
    study: object = None


def run_operation(workload: Workload, config, workdir: str) -> Outcome:
    """The timed operation: one call pattern into the public entry points.

    Entry points are looked up on their modules at call time, so the
    tracer's wrappers are seen when they are installed.
    """
    out = Outcome(workload, config, workdir)
    if workload.kind == "report":
        out.report, out.sym = pipeline.compute_report(config)
        pipeline.write_outputs(out.report, out.sym, config, workdir)
    else:
        out.study = spectrum.negative_count_study(config.surface,
                                                  workload.resolutions)
    return out


def output_digest(outcome: Outcome) -> str:
    """Hash of the deterministic outputs: report_json and eigen_csv bytes."""
    h = hashlib.sha256()
    if outcome.workload.kind == "report":
        for entry in outcome.config.outputs:
            for key, path in entry.items():
                if key in ("report_json", "eigen_csv"):
                    with open(os.path.join(outcome.workdir, path), "rb") as fh:
                        h.update(fh.read())
    else:
        h.update(repr((outcome.study.rows,
                       outcome.study.classification)).encode())
    return h.hexdigest()


# ------------------------------------------------------------------ checks
# Each check takes an Outcome and returns (ok, detail).

def ladder_rel_dev(report) -> float:
    """Largest relative deviation of the first four cluster means."""
    return max(float(abs(val - want) / want)
               for (val, _), (want, _) in zip(report.clusters, LADDER))


def weyl_rel_err(report) -> float:
    """|C_total_hat - sqrt(A_total)| / sqrt(A_total)."""
    want = math.sqrt(report.predicted.A_total)
    return abs(report.fit["C_total_hat"] - want) / want


def check_ladder(out):
    mults = [int(m) for _, m in out.report.clusters[:len(LADDER)]]
    dev = ladder_rel_dev(out.report)
    ok = mults == [m for _, m in LADDER] and dev <= LADDER_TOL
    return ok, f"multiplicities {mults}, max rel dev {dev:.2e}"


def check_top_eigenvalue(out):
    top = float(np.max(np.concatenate([out.report.lambda_plus,
                                       -out.report.lambda_minus])))
    return abs(top - 0.5) <= TOP_EIG_TOL, f"top eigenvalue {top!r}"


def check_coefficients(out):
    c = out.report.predicted
    chi_dev = abs(c.euler_char - round(c.euler_char))
    sum_dev = abs(c.A_plus + c.A_minus - c.A_total)
    ok = chi_dev <= CHI_TOL and sum_dev <= A_SUM_TOL
    return ok, f"chi defect {chi_dev:.1e}, |A+ + A- - A| {sum_dev:.1e}"


def check_matrix_dump(out):
    path = None
    for entry in out.config.outputs:
        path = entry.get("matrix_dump", path)
    matrix, basis = operators.read_matrix_dump(
        os.path.join(out.workdir, path))
    n = out.sym.n
    ok = (basis == "symmetrized" and matrix.shape == (n, n)
          and n == out.config.resolution[0] * out.config.resolution[1]
          and np.array_equal(matrix, out.sym.matrix))
    return ok, f"basis {basis}, n {matrix.shape[0]}"


def check_growing(out):
    counts = [c for _, c in out.study.rows]
    ok = (out.study.classification == spectrum.GROWING
          and all(b > a for a, b in zip(counts, counts[1:])))
    return ok, f"{out.study.classification} with counts {counts}"


def run_checks(outcome: Outcome, extra=()) -> list:
    """Run every check; returns [(name, ok, detail)], raising checks fail."""
    results = []
    for check in list(outcome.workload.checks) + list(extra):
        try:
            ok, detail = check(outcome)
        except Exception as exc:  # a check that cannot run has failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((check.__name__, bool(ok), detail))
    return results


def accuracy(outcome: Outcome) -> dict:
    """Accuracy figures of a report outcome (empty for the study)."""
    if outcome.workload.kind != "report":
        return {}
    acc = {"weyl_rel_err": weyl_rel_err(outcome.report)}
    if outcome.workload.doc["surface"]["name"] == "sphere":
        acc["ladder_rel_dev"] = ladder_rel_dev(outcome.report)
    return acc

"""Acceptance checks for the full pipeline.

Each test prints one [PASS]/[FAIL] line with the measured quantities, then
asserts.  The heavy fixtures (4608-node sphere, 4096-node torus) are module
scoped so the dense assemblies and the eigensolves of their mirror blocks
run once.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from npspectra import (
    assemble_operators,
    build_grid,
    compute_report,
    ellipsoid,
    mobius_invert,
    negative_count_study,
    peanut,
    sphere,
    spheroid,
    split_spectrum,
    symmetrized_spectrum,
    torus,
    weyl_coefficients_signed,
    weyl_fit,
)
from npspectra.spectrum import BOUNDED, GROWING

from conftest import make_config
from reference import SPHERE_CLUSTERS

REPO_ROOT = Path(__file__).resolve().parent.parent

CATALOG_INSTANCES = [
    ("sphere", sphere(), (12, 24)),
    ("ellipsoid", ellipsoid(2.0, 1.2, 1.0), (12, 24)),
    ("spheroid", spheroid(1.0, 2.0), (12, 24)),
    ("torus", torus(2.0, 1.0), (16, 16)),
    ("peanut", peanut(), (16, 32)),
]


@pytest.fixture()
def announce(capsys):
    """Print one visible pass/fail line per check, then assert."""

    def _announce(label: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {label}"
        if detail:
            line += f": {detail}"
        with capsys.disabled():
            print(f"\n{line}")
        assert ok, line

    return _announce


@pytest.fixture(scope="module")
def sphere_report_full():
    """Full pipeline on the 48 x 96 unit sphere (4608 nodes)."""
    config = make_config({"surface": {"name": "sphere"},
                          "resolution": [48, 96]})
    report, _ = compute_report(config)
    return report


@pytest.fixture(scope="module")
def torus_branch_fit():
    """Signed-branch fit against the curvature prediction, 64 x 64 torus."""
    grid = build_grid(torus(2.0, 1.0), 64, 64)
    predicted = weyl_coefficients_signed(grid)
    eigs, _, _ = symmetrized_spectrum(grid)
    _, lambda_minus = split_spectrum(eigs, 1e-10)
    return predicted, weyl_fit(lambda_minus, "auto")


def test_sphere_cluster_spectrum(sphere_report_full, announce):
    clusters = sphere_report_full.clusters[:4]
    ok = len(clusters) == 4
    devs, mults = [], []
    for (value, mult), (ref_value, ref_mult) in zip(clusters,
                                                    SPHERE_CLUSTERS):
        devs.append(abs(value - ref_value) / ref_value)
        mults.append(mult)
        ok = ok and mult == ref_mult and devs[-1] <= 1e-2
    announce("sphere eigenvalue clusters 1/(2(2k+1)), k = 0..3", ok,
             f"multiplicities {mults}, max rel dev {max(devs):.2e}")


def test_constant_eigenfunction_on_catalog(announce):
    worst = 0.0
    for _, surf, res in CATALOG_INSTANCES:
        grid = build_grid(surf, *res)
        k_op = assemble_operators(grid)[0]
        residual = np.max(np.abs(
            k_op.matrix @ np.ones(grid.n_nodes) - 0.5))
        worst = max(worst, residual)
    announce("K maps constants to 1/2 on every catalog surface",
             worst <= 1e-13, f"max residual {worst:.2e}")


def test_coefficient_identities_on_catalog(announce):
    resolutions = {"torus": (64, 64)}
    worst_sum = worst_formula = worst_chi = 0.0
    for name, surf, _ in CATALOG_INSTANCES:
        grid = build_grid(surf, *resolutions.get(name, (48, 96)))
        c = weyl_coefficients_signed(grid)
        worst_sum = max(worst_sum, abs(c.A_plus + c.A_minus - c.A_total))
        formula = (3.0 * c.willmore
                   - 2.0 * np.pi * c.euler_char) / (128.0 * np.pi)
        worst_formula = max(worst_formula, abs(c.A_total - formula))
        chi_expected = 0.0 if name == "torus" else 2.0
        worst_chi = max(worst_chi, abs(c.euler_char - chi_expected))
    ok = worst_sum <= 1e-6 and worst_formula <= 1e-15 and worst_chi <= 1e-6
    announce("signed coefficients sum to the Willmore form, "
             "Gauss-Bonnet recovers the genus", ok,
             f"max |A+ + A- - A| {worst_sum:.1e}, "
             f"max formula dev {worst_formula:.1e}, "
             f"max chi dev {worst_chi:.1e}")


def test_sphere_weyl_law_end_to_end(sphere_report_full, announce):
    c_hat = sphere_report_full.fit["C_total_hat"]
    rel = abs(c_hat - 0.25) / 0.25
    window = tuple(sphere_report_full.fit["window"])
    announce("sphere modulus asymptotics fit C j^(-1/2) with C near 1/4",
             rel <= 0.10,
             f"C_total_hat {c_hat:.5f}, rel dev {rel:.2%}, window {window}")


def test_negative_count_sign_structure(announce):
    studies = {}
    for name, surf in [("sphere", sphere()),
                       ("prolate spheroid", spheroid(1.0, 2.0)),
                       ("torus", torus(2.0, 1.0)),
                       ("peanut", peanut()),
                       ("oblate spheroid", spheroid(2.0, 1.0))]:
        studies[name] = negative_count_study(surf, [24, 32, 48])

    def counts(name):
        return [count for _, count in studies[name].rows]

    ok = (studies["sphere"].classification == BOUNDED
          and counts("sphere") == [0, 0, 0]
          and studies["prolate spheroid"].classification == BOUNDED
          and counts("prolate spheroid") == [0, 0, 0]
          and studies["torus"].classification == GROWING
          and studies["peanut"].classification == GROWING
          and studies["oblate spheroid"].classification == BOUNDED
          and counts("oblate spheroid")[-1] > 0)
    detail = "; ".join(
        f"{name} {counts(name)} {study.classification}"
        for name, study in studies.items())
    announce("negative counts: bounded on convex bodies, growing "
             "where curvature changes sign", ok, detail)


def test_torus_signed_asymptotics(torus_branch_fit, announce):
    predicted, fit = torus_branch_fit
    target = predicted.A_minus ** 0.5
    rel = abs(fit.c_hat - target) / target
    announce("torus negative branch matches the curvature prediction",
             rel <= 0.25,
             f"C_minus_hat {fit.c_hat:.5f}, sqrt(A_minus) {target:.5f}, "
             f"rel dev {rel:.2%}")


def test_mobius_invariance_of_total_coefficient(announce):
    base = ellipsoid(2.0, 1.2, 1.0)
    image = mobius_invert(base, (2.1, 0.0, 0.0), 1.0)
    cb = weyl_coefficients_signed(build_grid(base, 128, 256))
    ci = weyl_coefficients_signed(build_grid(image, 128, 256))
    rel = abs(ci.A_total - cb.A_total) / cb.A_total
    ok = rel <= 1e-2 and cb.A_minus <= 1e-12 and ci.A_minus > 1e-4
    announce("A is invariant under inversion while A_minus is not", ok,
             f"A rel dev {rel:.2e}, A_minus {cb.A_minus:.1e} -> "
             f"{ci.A_minus:.2e}")


def test_symmetrization_diagnostics_under_refinement(announce):
    surf = ellipsoid(2.0, 1.2, 1.0)
    plemelj, asymmetry = [], []
    sv_dev = None
    for n_u, n_v in [(16, 32), (24, 48), (32, 64)]:
        eigs, _, sym = symmetrized_spectrum(build_grid(surf, n_u, n_v))
        plemelj.append(sym.diagnostics["plemelj_residual"])
        asymmetry.append(sym.diagnostics["asymmetry_norm"])
        if (n_u, n_v) == (24, 48):
            moduli = np.sort(np.abs(eigs))[::-1]
            sv_dev = np.max(np.abs(moduli - sla.svdvals(sym.matrix)))
    decreasing = all(
        seq[i + 1] <= 1.1 * seq[i]
        for seq in (plemelj, asymmetry) for i in range(len(seq) - 1))
    ok = decreasing and sv_dev <= 1e-10
    announce("plemelj and asymmetry residuals decrease under refinement; "
             "moduli equal singular values", ok,
             f"plemelj {[f'{p:.2e}' for p in plemelj]}, "
             f"asymmetry {[f'{a:.2e}' for a in asymmetry]}, "
             f"sv dev {sv_dev:.1e}")


def test_property_suites_run_fast_without_solver(announce):
    files = ["tests/test_geometry.py", "tests/test_functionals.py",
             "tests/test_spectrum_units.py"]
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *files],
        capture_output=True, text=True, cwd=REPO_ROOT)
    elapsed = time.perf_counter() - start
    ok = result.returncode == 0 and elapsed < 10.0
    tail = result.stdout.strip().splitlines()[-1] if result.stdout else ""
    announce("solver-free property suites pass in under 10 s", ok,
             f"{elapsed:.1f}s, {tail}")

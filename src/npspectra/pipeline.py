"""End-to-end pipeline: geometry, coefficients, assembly, spectrum, outputs.

``run_pipeline`` is deterministic for a fixed config: the same document
produces byte-identical reports.  All report content is computed before any
output file is opened, so error paths never leave partial reports behind.
"""
from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import scipy.linalg as sla

from ._version import __version__
from .config import RunConfig
from .errors import (ConfigError, DegenerateChart, GridError, NumericalError,
                     SingularInversion)
from .functionals import weyl_coefficients_signed
from .grids import build_grid
from .operators import _map_blocks, _symmetrize_blocks, dump_operator
from .report import render_eigen_csv, render_report_json, write_text
from .spectrum import (TRIVIAL_TOL, SpectrumReport, _operator_blocks,
                       _sorted_union, cluster_multiplicities, plasmon_map,
                       split_spectrum, weyl_fit)

CLUSTER_REL_TOL = 5e-2
MAX_REPORTED_CLUSTERS = 32


@contextmanager
def _stage(name):
    """Tag propagated errors with the pipeline stage that raised them."""
    try:
        yield
    except (ConfigError, GridError, NumericalError, DegenerateChart,
            SingularInversion) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _drop_trivial(seq):
    """Remove the leading constant-eigenfunction eigenvalue 1/2."""
    if seq.size and abs(seq[0] - 0.5) <= TRIVIAL_TOL:
        return seq[1:]
    return seq


def _fit_branch(seq, window):
    """Fit one signed branch; None when the branch is too short to fit."""
    if window == "auto":
        if seq.size < 1:
            return None
    elif seq.size < window[1]:
        return None
    return weyl_fit(seq, window)


def compute_report(config: RunConfig) -> tuple:
    """Run the numerical pipeline and build the report.

    The representative rows of K and S are assembled and split into the
    blocks of the grid's mirror group (``spectrum._operator_blocks``; a
    grid without mirrors is one block), so on a grid with mirrors no n x n
    array is built.  Each block is symmetrized on its own, and the
    eigenvalues and the singular values of K_w are the sorted unions of
    the block values; the diagnostics merge as described in
    ``operators._symmetrize_blocks``.  Every report carries the same
    diagnostics, whatever the grid size.  On a grid with mirrors the
    blocks run side by side with one BLAS thread per call
    (``operators._map_blocks``), so the report does not depend on the BLAS
    thread count or the CPU count.  The eigenvalues and the symmetrized
    operator are those of ``spectrum.symmetrized_spectrum``.

    Returns
    -------
    (SpectrumReport, DiscreteOperator)
        The report plus the symmetrized operator (kept for matrix dumps),
        Q blockdiag(sym_b) Q^T in the orthonormal basis of the blocks.  It
        holds its representative rows and builds its n x n ``matrix`` on
        first access; a ``matrix_dump`` streams the rows without it.
    """
    with _stage("geometry"):
        grid = build_grid(config.surface, *config.resolution)
        predicted = weyl_coefficients_signed(grid)
    with _stage("assembly"):
        blocks = _operator_blocks(grid)
        sym, sym_blocks = _symmetrize_blocks(grid, blocks)
    with _stage("spectrum"):
        eigs = _sorted_union(_map_blocks(sla.eigvalsh, sym_blocks))
        del sym_blocks
        singular_values = _sorted_union(
            _map_blocks(lambda kb: sla.svdvals(kb[0]), blocks))
        del blocks
        lambda_plus, lambda_minus = split_spectrum(eigs, config.noise_cutoff)
        clusters = cluster_multiplicities(eigs, CLUSTER_REL_TOL)
        clusters = clusters[:MAX_REPORTED_CLUSTERS]
        moduli = _drop_trivial(
            np.sort(np.concatenate([lambda_plus, lambda_minus]))[::-1])
        if not moduli.size:
            raise ConfigError(
                f"/noise_cutoff: {config.noise_cutoff:g} is above every "
                f"eigenvalue but the trivial 1/2; nothing is left to fit")
        fit_total = weyl_fit(moduli, config.fit_window)
        fit_plus = _fit_branch(_drop_trivial(lambda_plus), config.fit_window)
        fit_minus = _fit_branch(lambda_minus, config.fit_window)
        diagnostics = {
            "asymmetry_norm": sym.diagnostics["asymmetry_norm"],
            "plemelj_residual": sym.diagnostics["plemelj_residual"],
            "n_nodes": grid.n_nodes,
            "min_eig_negS": sym.diagnostics["min_eig_negS"],
            "counting_check_total": fit_total.counting_check,
        }
        fit = {
            "C_plus_hat": None if fit_plus is None else fit_plus.c_hat,
            "C_minus_hat": None if fit_minus is None else fit_minus.c_hat,
            "C_total_hat": fit_total.c_hat,
            "window": list(fit_total.window),
        }
        signed = np.sort(np.concatenate([lambda_plus, -lambda_minus]))[::-1]
        # the discrete 1/2 eigenvalue approximates the pole of the map
        plasmon = [plasmon_map(lam) for lam in signed
                   if abs(lam - 0.5) > TRIVIAL_TOL]
    report = SpectrumReport(
        lambda_plus=lambda_plus, lambda_minus=lambda_minus,
        singular_values=singular_values, clusters=clusters, fit=fit,
        predicted=predicted, plasmon=plasmon, diagnostics=diagnostics)
    return report, sym


def _output_jobs(config: RunConfig, base_dir: str) -> list:
    """(key, path) of each requested output, resolved against ``base_dir``.

    Paths are joined to ``base_dir`` (an absolute path stays as it is) and
    normalized, so two spellings of one file give the same path.

    Raises
    ------
    ConfigError
        At ``/outputs/<i>/<key>`` if two entries resolve to the same file;
        ``parse_config`` cannot see this, since it does not know
        ``base_dir``.
    """
    jobs, seen = [], {}
    for i, entry in enumerate(config.outputs):
        for key, path in entry.items():
            where = f"/outputs/{i}/{key}"
            full = os.path.normpath(os.path.join(base_dir, path))
            if full in seen:
                raise ConfigError(f"{where}: path {full!r} is already "
                                  f"written by {seen[full]}")
            seen[full] = where
            jobs.append((key, full))
    return jobs


def write_outputs(report: SpectrumReport, sym, config: RunConfig,
                  base_dir: str = ".") -> list:
    """Write the outputs requested by the config; returns written paths.

    Paths are resolved against ``base_dir`` (``_output_jobs``); all file
    content is rendered before the first write.
    """
    jobs = _output_jobs(config, base_dir)
    rendered = {}
    for key, full in jobs:
        if key == "report_json":
            rendered[full] = render_report_json(report, config.echo(),
                                                __version__)
        elif key == "eigen_csv":
            rendered[full] = render_eigen_csv(report)
    written = []
    for key, full in jobs:
        parent = os.path.dirname(full)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if key == "matrix_dump":
            dump_operator(sym, full)
        else:
            write_text(full, rendered[full])
        written.append(full)
    return written


def run_pipeline(config: RunConfig, base_dir: str = ".") -> SpectrumReport:
    """Full pipeline: compute the spectrum report and write outputs.

    Parameters
    ----------
    config : RunConfig
        Validated configuration.
    base_dir : str
        Directory against which relative output paths are resolved.

    Returns
    -------
    SpectrumReport
        The in-memory report; requested files are written as a side effect.

    Raises
    ------
    ConfigError
        Before any computation, if two outputs resolve to the same file.
    """
    _output_jobs(config, base_dir)
    report, sym = compute_report(config)
    with _stage("report"):
        write_outputs(report, sym, config, base_dir)
    return report

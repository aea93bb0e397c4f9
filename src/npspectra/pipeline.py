"""End-to-end pipeline: geometry, coefficients, assembly, spectrum, outputs.

``run_pipeline`` is deterministic for a fixed config: the same document
produces byte-identical reports.  All report content is computed before any
output file is opened, so error paths never leave partial reports behind.
"""
from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from ._version import __version__
from .config import RunConfig
from .errors import (ConfigError, DegenerateChart, GridError, NumericalError,
                     SingularInversion)
from .functionals import weyl_coefficients_signed
from .grids import build_grid
from .operators import _symmetrize_blocks, dump_operator
from .report import render_eigen_csv, render_report_json, write_text
from .spectrum import (TRIVIAL_TOL, SpectrumReport, _operator_blocks,
                       _plasmon_values, cluster_multiplicities,
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

    Assembly splits the representative rows of K and S into (K, S)
    stacks of blocks (``spectrum._operator_blocks``), so on a grid with
    mirrors or the turn no n x n array is built; the symmetrization,
    spectra and diagnostics then come from one pass over the stacks,
    described in ``operators._symmetrize_blocks``.  An error is tagged
    with its stage: ``assembly``, ``symmetrize`` (a block whose -S is not
    positive definite, named in the message) or ``spectrum``.

    Returns
    -------
    (SpectrumReport, DiscreteOperator)
        The report plus the symmetrized operator (kept for matrix dumps),
        Q blockdiag(sym_b) Q^T in the orthonormal basis of the blocks.  It
        holds its blocks in the split's K stacks, each K_b overwritten by
        its sym_b, joins its representative rows on first read, and
        builds ``matrix`` from them; a ``matrix_dump`` streams the rows.
    """
    with _stage("geometry"):
        grid = build_grid(config.surface, *config.resolution)
        predicted = weyl_coefficients_signed(grid)
    with _stage("assembly"):
        stacks, mult = _operator_blocks(grid)
    with _stage("symmetrize"):
        eigs, singular_values, sym = _symmetrize_blocks(grid, stacks, mult)
    del stacks
    with _stage("spectrum"):
        lambda_plus, lambda_minus = split_spectrum(eigs, config.noise_cutoff)
        clusters = cluster_multiplicities(eigs, CLUSTER_REL_TOL)
        clusters = clusters[:MAX_REPORTED_CLUSTERS]
        moduli = _drop_trivial(
            np.sort(np.concatenate([lambda_plus, lambda_minus]))[::-1])
        if not moduli.size:
            raise ConfigError(
                f"/noise_cutoff: {config.noise_cutoff:g} is above every "
                f"eigenvalue but the trivial 1/2; nothing is left to fit")
        try:
            fit_total = weyl_fit(moduli, config.fit_window)
        except ConfigError as exc:
            raise ConfigError(f"/fit_window: {exc}") from exc
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
        plasmon = _plasmon_values(signed)[1].tolist()
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
        At ``/outputs/<i>/<key>`` if two entries resolve to the same file
        or an entry resolves to an existing directory; ``parse_config``
        cannot see either, since it does not know ``base_dir``.
    """
    jobs, seen = [], {}
    for i, entry in enumerate(config.outputs):
        for key, path in entry.items():
            where = f"/outputs/{i}/{key}"
            full = os.path.normpath(os.path.join(base_dir, path))
            if os.path.isdir(full):
                raise ConfigError(f"{where}: path {full!r} is an existing "
                                  f"directory, not a file")
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
    content is rendered, a dump's rows joined, before the first write.
    """
    jobs = _output_jobs(config, base_dir)
    rendered = {}
    for key, full in jobs:
        if key == "report_json":
            rendered[full] = render_report_json(report, config.echo(),
                                                __version__)
        elif key == "eigen_csv":
            rendered[full] = render_eigen_csv(report)
        elif key == "matrix_dump":
            rendered[full] = sym.rows  # joined before any file opens
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
        Before any computation, if two outputs resolve to the same file or
        one resolves to an existing directory.
    """
    _output_jobs(config, base_dir)
    report, sym = compute_report(config)
    with _stage("report"):
        write_outputs(report, sym, config, base_dir)
    return report

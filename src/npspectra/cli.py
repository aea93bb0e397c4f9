"""Command-line front end.

Subcommands
-----------
coefficients     geometry and curvature functionals only (fast)
spectrum         full pipeline: assembly, symmetrization, eigensolve
weyl-check       spectrum plus a predicted-versus-fitted coefficient table
plasmon          spectrum plus the plasmonic eigenvalue table
study-negatives  negative-eigenvalue counts across grid refinements

Every subcommand takes ``--config <path>`` (JSON document, see the config
module) and ``--out <dir>`` for output files; ``--resolution NxM``
overrides the config's grid resolution.  Exit codes: 0 success, 1 file
system error, 2 usage, 3 invalid configuration or unusable geometry (an
inversion center on the surface, a degenerate chart, a grid that cannot
be assembled, or a value outside the domain of a spectral map), 4 lost
positivity of the single layer, 5 numerical failure, 6 out of memory (an
array the grid needs cannot be allocated; pick a coarser grid).  Codes 1
and 3-6 print one ``error:`` line on stderr, with no traceback.  Code 4
names the first block whose -S is not positive definite, ``mode m even``
or ``mode m odd`` on a surface of revolution with the z-mirror, ``mode m``
on one without it, else ``mirror character i`` (the nonempty ones
counted from 0), after ``symmetrize:`` in a report and after the failing
grid, such as ``224x448 grid (100352 nodes):``, in a study.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from ._version import __version__
from .config import RunConfig, load_config
from .errors import (ConfigError, DegenerateChart, DomainError, GridError,
                     NotPositiveDefinite, NumericalError, PoleError)
from .functionals import weyl_coefficients_signed
from .grids import build_grid, check_resolution
from .spectrum import negative_count_study
from .pipeline import run_pipeline

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NOT_PD = 4
EXIT_NUMERICAL = 5
EXIT_MEMORY = 6


def _parse_resolution(text: str, option: str = "--resolution"):
    parts = text.lower().split("x")
    try:
        n_u, n_v = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{option} expects NxM, got {text!r}") from None
    check_resolution(n_u, n_v, option)
    return (n_u, n_v)


def _parse_resolution_list(text: str):
    return [_parse_resolution(part, "--resolutions")
            for part in text.split(",") if part]


def _load(args) -> RunConfig:
    config = load_config(args.config)
    if args.resolution:
        config = dataclasses.replace(
            config, resolution=_parse_resolution(args.resolution))
    return config


def _describe(config: RunConfig) -> str:
    n_u, n_v = config.resolution
    return (f"surface {config.surface.name} {config.surface.params}, "
            f"grid {n_u}x{n_v} ({n_u * n_v} nodes)")


def _print_coefficients(coeffs) -> None:
    print(f"A_total    = {coeffs.A_total:.10g}")
    print(f"A_plus     = {coeffs.A_plus:.10g}")
    print(f"A_minus    = {coeffs.A_minus:.10g}")
    print(f"willmore   = {coeffs.willmore:.10g}")
    print(f"euler_char = {coeffs.euler_char:.10g}")


def cmd_coefficients(args) -> int:
    config = _load(args)
    print(_describe(config))
    grid = build_grid(config.surface, *config.resolution)
    _print_coefficients(weyl_coefficients_signed(grid))
    return EXIT_OK


def _run(args):
    config = _load(args)
    print(_describe(config))
    report = run_pipeline(config, base_dir=args.out)
    return config, report


def cmd_spectrum(args) -> int:
    config, report = _run(args)
    diag = report.diagnostics
    print(f"eigenvalues: {report.lambda_plus.size} positive, "
          f"{report.lambda_minus.size} negative (above noise cutoff)")
    head = ", ".join(f"{v:.6f}" for v in report.lambda_plus[:6])
    print(f"leading positive: {head}")
    if report.lambda_minus.size:
        head = ", ".join(f"{-v:.6f}" for v in report.lambda_minus[:4])
        print(f"leading negative: {head}")
    print(f"asymmetry_norm   = {diag['asymmetry_norm']:.3e}")
    print(f"plemelj_residual = {diag['plemelj_residual']:.3e}")
    print(f"min_eig_negS     = {diag['min_eig_negS']:.3e}")
    return EXIT_OK


def cmd_weyl_check(args) -> int:
    config, report = _run(args)
    coeffs = report.predicted
    fit = report.fit
    rows = [
        ("total", coeffs.A_total ** 0.5, fit["C_total_hat"]),
        ("plus", coeffs.A_plus ** 0.5, fit["C_plus_hat"]),
        ("minus", coeffs.A_minus ** 0.5, fit["C_minus_hat"]),
    ]
    print(f"{'branch':<8}{'predicted sqrt(A)':>20}{'fitted C_hat':>20}")
    for name, predicted, fitted in rows:
        fitted_text = f"{fitted:.6f}" if fitted is not None else "n/a"
        print(f"{name:<8}{predicted:>20.6f}{fitted_text:>20}")
    print(f"fit window: {tuple(fit['window'])}")
    return EXIT_OK


def cmd_plasmon(args) -> int:
    config, report = _run(args)
    print(f"{'j':>5}{'epsilon_j':>16}")
    for j, eps in enumerate(report.plasmon[:20], start=1):
        print(f"{j:>5}{eps:>16.8f}")
    if len(report.plasmon) > 20:
        print(f"... {len(report.plasmon) - 20} more")
    return EXIT_OK


def cmd_study_negatives(args) -> int:
    config = _load(args)
    resolutions = _parse_resolution_list(args.resolutions)
    print(f"surface {config.surface.name} {config.surface.params}, "
          f"threshold {args.threshold:g}")
    result = negative_count_study(config.surface, resolutions,
                                  args.threshold)
    print(f"{'n_nodes':>10}{'negatives':>12}")
    for n_nodes, count in result.rows:
        print(f"{n_nodes:>10}{count:>12}")
    print(f"classification: {result.classification}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npspectra",
        description="Spectra of the boundary double-layer operator and "
                    "their curvature asymptotics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="subcommand")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    common.add_argument("--out", default=".",
                        help="directory for requested output files")
    common.add_argument("--resolution", default=None, metavar="NxM",
                        help="override the grid resolution")
    sub.add_parser("coefficients", parents=[common],
                   help="curvature functionals only"
                   ).set_defaults(func=cmd_coefficients)
    sub.add_parser("spectrum", parents=[common],
                   help="full spectral pipeline"
                   ).set_defaults(func=cmd_spectrum)
    sub.add_parser("weyl-check", parents=[common],
                   help="predicted versus fitted coefficients"
                   ).set_defaults(func=cmd_weyl_check)
    sub.add_parser("plasmon", parents=[common],
                   help="plasmonic eigenvalue table"
                   ).set_defaults(func=cmd_plasmon)
    study = sub.add_parser("study-negatives", parents=[common],
                           help="negative counts across refinements")
    study.add_argument("--resolutions", default="24x24,32x32,48x48",
                       help="comma-separated list of NxM resolutions")
    study.add_argument("--threshold", type=float, default=1e-3,
                       help="count eigenvalues below -threshold")
    study.set_defaults(func=cmd_study_negatives)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridError, DegenerateChart, DomainError,
            PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotPositiveDefinite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PD
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # the interpreter's own MemoryError carries no message
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    raise SystemExit(main())

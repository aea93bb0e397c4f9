"""Spectral analysis of boundary layer potentials on smooth closed surfaces.

The package discretizes the boundary double-layer (Neumann-Poincare) and
single-layer operators on parametric surfaces by a Nystrom method, extracts
the spectrum of the symmetrized operator, and compares the observed
eigenvalue power laws against the curvature functionals that are predicted
to govern them (signed coefficients from the principal curvatures, the
Willmore energy, and the Euler characteristic).
"""
from ._version import __version__
from .config import RunConfig, build_surface, load_config, parse_config
from .errors import (ConfigError, DegenerateChart, DomainError, GridError,
                     NotPositiveDefinite, NumericalError, PoleError,
                     SingularInversion, TopologyWarning)
from .functionals import (WeylCoefficients, euler_characteristic,
                          principal_symbol, weyl_coefficients_signed,
                          willmore_energy)
from .geometry import SurfaceFrame, evaluate_frame, principal_curvatures
from .grids import (QuadratureGrid, build_grid, concatenate_grids,
                    surface_integral)
from .operators import (DiscreteOperator, assemble_operators, dump_operator,
                        plemelj_residual, read_matrix_dump, to_weighted_l2)
from .pipeline import compute_report, run_pipeline
from .spectrum import (FitEstimate, SpectrumReport, StudyResult,
                       cluster_multiplicities, counting_function,
                       default_fit_window, negative_count_study, plasmon_map,
                       split_spectrum, symmetrized_spectrum, weyl_fit)
from .surfaces import (ParametricSurface, catalog_names, ellipsoid,
                       mobius_invert, peanut, rigid_transform, sphere,
                       spheroid, torus)

__all__ = [
    "__version__",
    "ConfigError", "DegenerateChart", "DomainError", "GridError",
    "NotPositiveDefinite", "NumericalError", "PoleError",
    "SingularInversion", "TopologyWarning",
    "ParametricSurface", "sphere", "ellipsoid", "spheroid", "torus",
    "peanut", "mobius_invert", "rigid_transform", "catalog_names",
    "SurfaceFrame", "evaluate_frame", "principal_curvatures",
    "QuadratureGrid", "build_grid", "concatenate_grids", "surface_integral",
    "WeylCoefficients", "willmore_energy", "euler_characteristic",
    "weyl_coefficients_signed", "principal_symbol",
    "DiscreteOperator", "assemble_operators", "to_weighted_l2",
    "plemelj_residual", "dump_operator", "read_matrix_dump",
    "SpectrumReport", "FitEstimate", "StudyResult", "split_spectrum",
    "counting_function", "cluster_multiplicities", "weyl_fit",
    "default_fit_window", "plasmon_map", "negative_count_study",
    "symmetrized_spectrum",
    "RunConfig", "parse_config", "load_config", "build_surface",
    "compute_report", "run_pipeline",
]

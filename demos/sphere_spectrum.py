"""Assemble the double layer on a sphere and recover the exact spectrum.

On the unit sphere the operator diagonalizes on spherical harmonics with
eigenvalues 1/(2(2k+1)) of multiplicity 2k+1. The demo assembles the
meridian rows of the Nystrom matrices, splits them into one block per
rotation mode, symmetrizes each block through its single layer, and
prints the detected clusters next to the exact ladder, plus the
symmetrization diagnostics that certify the discretization.
"""

from __future__ import annotations

import numpy as np

from npspectra import assemble_operators, build_grid, \
    cluster_multiplicities, sphere, symmetrized_spectrum


def main() -> None:
    grid = build_grid(sphere(), 24, 48)
    print(f"unit sphere, {grid.n_nodes} nodes")
    eigs, _, sym = symmetrized_spectrum(grid)

    d = sym.diagnostics
    print(f"  asymmetry of weighted K : {d['asymmetry_norm']:.3e}")
    print(f"  plemelj residual        : {d['plemelj_residual']:.3e}")
    print(f"  min eigenvalue of -S    : {d['min_eig_negS']:.3e} "
          "(positivity certifies the inner product)")
    print()

    print(f"{'k':>3}{'exact 1/(2(2k+1))':>20}{'computed cluster':>20}"
          f"{'mult':>6}{'exact mult':>12}")
    clusters = cluster_multiplicities(eigs, 5e-2)
    for k, (value, mult) in enumerate(clusters[:6]):
        exact = 1.0 / (2.0 * (2.0 * k + 1.0))
        print(f"{k:>3}{exact:>20.8f}{value:>20.8f}{mult:>6}"
              f"{2 * k + 1:>12}")
    print()

    k_op, _ = assemble_operators(grid)
    residual = np.max(np.abs(k_op.matrix @ np.ones(grid.n_nodes) - 0.5))
    print(f"trivial eigenpair: K maps the constant to 1/2 with residual "
          f"{residual:.2e}")


if __name__ == "__main__":
    main()

"""Sign structure of the spectrum and the plasmonic eigenvalue map.

Convex bodies carry finitely many negative eigenvalues (here: none above
the 1e-3 threshold, or a fixed handful for the oblate spheroid), while a
region where the curvature form changes sign feeds a growing negative
branch. The second half maps the sphere spectrum to plasmonic
permittivities eps = 1 - 2 lambda / (lambda - 1/2).
"""

from __future__ import annotations

from npspectra import (
    build_grid,
    negative_count_study,
    plasmon_map,
    spheroid,
    sphere,
    split_spectrum,
    symmetrized_spectrum,
    torus,
)


def main() -> None:
    resolutions = [16, 20, 24]
    print("negative-eigenvalue counts under grid refinement "
          f"(resolutions {['%dx%d' % (r, r) for r in resolutions]})")
    print(f"{'surface':<24}{'counts':>18}{'trend':>16}")
    for name, surf in [
        ("sphere", sphere()),
        ("prolate spheroid(1,2)", spheroid(1.0, 2.0)),
        ("oblate spheroid(2,1)", spheroid(2.0, 1.0)),
        ("torus(2,1)", torus(2.0, 1.0)),
    ]:
        study = negative_count_study(surf, resolutions)
        counts = [count for _, count in study.rows]
        print(f"{name:<24}{str(counts):>18}{study.classification:>16}")
    print()

    grid = build_grid(sphere(), 16, 32)
    eigs, _, _ = symmetrized_spectrum(grid)
    lambda_plus, _ = split_spectrum(eigs, 1e-10)
    print("plasmonic eigenvalues of the unit sphere "
          "(exact ladder eps_k = (k + 1)/k)")
    print(f"{'k':>3}{'lambda_k':>14}{'eps':>14}{'exact eps':>14}")
    # first entry of each exact cluster
    offsets = [1, 4, 9, 16]
    for k, j in enumerate(offsets, start=1):
        lam = lambda_plus[j]
        print(f"{k:>3}{lam:>14.8f}{plasmon_map(lam):>14.8f}"
              f"{1.0 + 1.0 / k:>14.8f}")
    print()
    print("the trivial eigenvalue 1/2 is the pole of the map and is "
          "excluded from plasmon tables")


if __name__ == "__main__":
    main()

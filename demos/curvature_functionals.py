"""Willmore energy, Gauss-Bonnet, and the signed Weyl coefficients.

Checks the quadratures against closed forms (sphere and torus), shows
the decomposition A = A_plus + A_minus driven by the sign of the
curvature form, and demonstrates that A is invariant under inversion
while the signed parts are not.
"""

from __future__ import annotations

import numpy as np

from npspectra import (
    build_grid,
    ellipsoid,
    euler_characteristic,
    mobius_invert,
    peanut,
    sphere,
    spheroid,
    torus,
    weyl_coefficients_signed,
    willmore_energy,
)


def main() -> None:
    grid = build_grid(sphere(), 48, 96)
    w = willmore_energy(grid)
    chi = euler_characteristic(grid)
    print("closed forms")
    print(f"  sphere   W = {w:.12f}  (4 pi = {4 * np.pi:.12f}),  "
          f"chi = {chi:.12f}")

    big_r, small_r = 2.0, 1.0
    grid = build_grid(torus(big_r, small_r), 64, 64)
    w = willmore_energy(grid)
    exact = np.pi ** 2 * big_r ** 2 / (small_r
                                       * np.sqrt(big_r ** 2 - small_r ** 2))
    print(f"  torus    W = {w:.12f}  (pi^2 R^2 / (r sqrt(R^2 - r^2)) "
          f"= {exact:.12f}),  chi = {euler_characteristic(grid):.2e}")
    print()

    print("signed coefficient split, A = A_plus + A_minus")
    print(f"{'surface':<24}{'A':>14}{'A_plus':>14}{'A_minus':>14}")
    cases = [
        ("sphere", sphere(), (48, 96)),
        ("prolate spheroid(1,2)", spheroid(1.0, 2.0), (48, 96)),
        ("torus(2,1)", torus(2.0, 1.0), (64, 64)),
        ("peanut", peanut(), (48, 96)),
    ]
    for name, surf, res in cases:
        c = weyl_coefficients_signed(build_grid(surf, *res))
        print(f"{name:<24}{c.A_total:>14.8f}{c.A_plus:>14.8f}"
              f"{c.A_minus:>14.8f}")
    print("  (A_minus vanishes exactly when both curvatures keep one "
          "sign)")
    print()

    base = ellipsoid(2.0, 1.2, 1.0)
    image = mobius_invert(base, (2.1, 0.0, 0.0), 1.0)
    cb = weyl_coefficients_signed(build_grid(base, 128, 256))
    ci = weyl_coefficients_signed(build_grid(image, 128, 256))
    print("inversion invariance of the total coefficient")
    print(f"  A(ellipsoid) = {cb.A_total:.10f}")
    print(f"  A(image)     = {ci.A_total:.10f}   "
          f"(rel dev {abs(ci.A_total - cb.A_total) / cb.A_total:.1e})")
    print(f"  A_minus: {cb.A_minus:.1e} -> {ci.A_minus:.3e}  "
          "(the signed split is not invariant)")


if __name__ == "__main__":
    main()

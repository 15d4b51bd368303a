"""Tour of characteristic-function analysis.

A polynomial characteristic function drives everything downstream: its
iterates are the eigenvalue ladder, its fixed points are the asymptotes, and
its vertex bounds the region where the function is invertible.  This script
walks the tangent quadratic used throughout the stock figures.
"""

import numpy as np

from gjsmap import (
    CharFn,
    Orientation,
    classify_region,
    discriminant,
    evaluate,
    find_roots,
    fixed_points,
    invertibility_boundary,
    iterate,
    reflection_pair,
)

fn = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
print("f(x) = 2.5 x^2 - 2.5 x + 1.225   (oscillator-like)")
print(f"  discriminant of f(x) - x : {discriminant(fn):.3e}  (tangent case)")
print(f"  invertibility boundary   : {invertibility_boundary(fn)}")

(fp,) = fixed_points(fn)
print(f"  fixed point              : {fp.location} ({fp.stability.value}, "
      f"{fp.one_sided_behavior.value})")

print("\nOrbit from x0 = 0.56 (between the boundary and the fixed point):")
orbit = iterate(fn, 0.56, 8)
print("  " + " -> ".join(f"{x:.6f}" for x in orbit))
print(f"  region: {classify_region(fn, 0.56).value}")

print("\nOrbit from x0 = 0.85 (beyond the fixed point):")
try:
    orbit = iterate(fn, 0.85, 60)
    print("  stayed bounded:", orbit[-1])
except Exception as exc:  # OverflowDiverged carries the partial orbit
    partial = exc.iterates
    print(f"  diverged after {len(partial) - 1} steps; last values "
          + ", ".join(f"{x:.3g}" for x in partial[-3:]))
print(f"  region: {classify_region(fn, 0.85).value}")

print("\nEvery polynomial has a reflection partner g with g(-x) = -f(x):")
fn4 = CharFn((1.0, 3.0, 1.0), Orientation.OSCILLATOR)
gn4 = reflection_pair(fn4)
print(f"  f = x^2 + 3x + 1  ->  g coefficients {gn4.coefficients}")
xs = np.linspace(-2.0, 2.0, 5)
print("  g(-x) + f(x) on a grid:",
      [float(evaluate(gn4, -x) + evaluate(fn4, x)) for x in xs])

print("\nGeneral-purpose root finding (the real roots, bisection-refined):")
p = [0, 4, 0, -5, 0, 1]
print("  roots of x^5 - 5x^3 + 4x:", [round(r, 12) for r in find_roots(p)])

"""The generalized two-oscillator realization, end to end.

Two independent copies of one oscillator algebra carry the weight algebra:
S_z is a diagonal functional G, and S_+/S_- dress the hopping terms with a
diagonal functional F.  On a fixed shell n1 + n2 = 2j these matrices are
entrywise equal to the directly-built highest-weight representation.  The
linear pair recovers the classic two-boson angular-momentum construction,
and reflection-paired polynomials make F collapse to a single square root.
"""

import numpy as np

from gjsmap import (
    CharFn,
    FixedJ,
    Orientation,
    RepKind,
    build_gsl2,
    build_jsmap,
    cut_condition_solve,
    derive_pairing,
    verify_jsmap_relations,
    verify_map_equals_gsl2,
    verify_pairing_identity,
)

np.set_printoptions(precision=6, suppress=True)

boson = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
sl2 = CharFn((-1.0, 1.0), Orientation.WEIGHT)
print("Standard limit, j = 1: the classic two-boson construction")
rep = build_jsmap(boson, 0.0, sl2, 1.0, FixedJ(2))
print("  S_z:\n", rep.s_z.entries)
print("  S_+:\n", rep.s_plus.entries)
direct = build_gsl2(sl2, 1.0, 3, RepKind.FINITE_CUT)
report = verify_map_equals_gsl2(rep, direct, tol=1e-12)
print("  max |map - direct| over all four generators:",
      f"{report.max_residual:.2e}")

print("\nDeformed pair: f = x^2 + 3x + 1 against g = -x^2 + 3x - 1")
fn = CharFn((1.0, 3.0, 1.0), Orientation.OSCILLATOR)
gn, _ = derive_pairing(fn, 0.0)
root = cut_condition_solve(gn, 2).included[0]
print(f"  two-state cut root alpha_j = {root:.10f}, alpha0 = -alpha_j")
mapped = build_jsmap(fn, -root, gn, root, FixedJ(1))
direct = build_gsl2(gn, root, 2, RepKind.FINITE_CUT, cut_tol=1e-9)
report = verify_map_equals_gsl2(mapped, direct, tol=1e-10)
print("  S_z:\n", mapped.s_z.entries)
print("  S_+:\n", mapped.s_plus.entries)
print("  S^2 diagonal:", np.diag(mapped.s_sq.entries),
      f" (alpha_j(alpha_j+1) = {root * (root + 1):.8f})")
print("  entrywise agreement:", {k: f"{v:.2e}" for k, v in report.residuals.items()})
print("  weight-algebra relations from the mapped matrices:",
      verify_jsmap_relations(mapped, tol=1e-10).passed)

print("\nEight-state truncated shell with a linear f against the quadratic g:")
mapped = build_jsmap(boson, 0.0, gn, 1.2, FixedJ(7))
direct = build_gsl2(gn, 1.2, 8, RepKind.TRUNCATED_INFINITE)
report = verify_map_equals_gsl2(mapped, direct, tol=1e-10)
print("  max residual:", f"{report.max_residual:.2e}", "passed:", report.passed)

print("\nReflection pairing makes the oscillator and weight Gauss numbers match:")
pair_report = verify_pairing_identity(fn, -0.15, 10, tol=1e-10)
print("  max relative defect over m = 0..10:", pair_report.max_residual)
print("  fixed points mirror:", pair_report.fixed_point_f,
      "<->", pair_report.fixed_point_g)

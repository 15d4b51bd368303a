"""Highest-weight representations of the generalized sl(2) algebra.

A weight-like characteristic function ``g`` and a highest weight ``alpha_j``
fix the descending weight ladder ``alpha_j, g(alpha_j), g^(2)(alpha_j), ...``
with ladder squares

    M_m^2 = alpha_j (alpha_j + 1) - w (w + 1),   w = g^(m+1)(alpha_j).

A representation closes after ``d`` states when the next ladder square
vanishes, which happens in exactly two ways: the orbit returns to the highest
weight (``g^(d)(alpha_j) = alpha_j``, periodic) or the closure equation
``alpha_j + g^(d)(alpha_j) + 1 = 0`` holds (cut).  Solvers for both equations
isolate the real roots in a window around the invertibility boundary with
``charfun.isolate_roots``: interval subdivision drops the boxes whose
enclosure keeps away from zero, finishes the monotone ones and bisects each
sign change; the iterated ``g`` is composed numerically, never expanded
symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    Orientation,
    charfn_from_dict,
    charfn_to_dict,
    evaluate,
    invertibility_region,
    isolate_roots,
    iterate,
)
from .errors import (
    CutResidualTooLarge,
    DescentViolation,
    GjsError,
    InvalidHighestWeight,
    NegativeLadderSquare,
    PeriodicResidualTooLarge,
)
from .gha import OperatorMatrix, ResidualReport, _clamped, _diag_product, _relation_residuals

#: Default residual accepted when a caller supplies the closure value
#: directly (loose enough for a 5-digit root); solver-recomputed roots are
#: held to CUT_SOLVE_TOL.
CUT_ACCEPT_TOL = 1e-4
CUT_SOLVE_TOL = 1e-9


class RepKind(Enum):
    FINITE_PERIODIC = "periodic"
    FINITE_CUT = "cut"
    TRUNCATED_INFINITE = "truncated"


@dataclass(frozen=True)
class Gsl2Rep:
    """A ``dim``-state highest-weight representation.

    ``weights[m]`` is the eigenvalue of the diagonal generator on state ``m``
    (highest weight first); ``ladder_sq[m]`` the square of the step weight
    between states ``m`` and ``m + 1``.  ``next_weight`` is the first weight
    past the truncation, from which ``cut_residual`` (the closure defect
    ``alpha_j + next_weight + 1``) is computed for any kind.
    """

    gn: CharFn
    alpha_j: float
    dim: int
    kind: RepKind
    weights: tuple[float, ...]
    ladder_sq: tuple[float, ...]
    next_weight: float
    cut_residual: float


def build_gsl2(
    gn: CharFn,
    alpha_j: float,
    dim: int,
    kind: RepKind,
    cut_tol: float = CUT_ACCEPT_TOL,
    bound: float = DIVERGENCE_BOUND,
) -> Gsl2Rep:
    """Construct a highest-weight representation and validate its kind.

    Finite kinds check their closure residual against ``cut_tol``; cut
    representations additionally require every interior ladder square to be
    strictly positive (a vanishing one would split the module early).

    Raises
    ------
    InvalidHighestWeight
        ``alpha_j`` outside the invertibility region.
    DescentViolation
        Some iterate fails ``alpha_j > g^(m)(alpha_j)``.
    NegativeLadderSquare
        A ladder square below ``-gha.CLAMP_TOL``: not unitary.
    CutResidualTooLarge / PeriodicResidualTooLarge
        Closure defect above ``cut_tol`` for the finite kinds.
    """
    if gn.orientation is not Orientation.WEIGHT:
        raise ValueError("weight-side algebra needs a weight-like function")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    kind = RepKind(kind)
    lo, hi = invertibility_region(gn)
    if not (lo < alpha_j < hi):
        raise InvalidHighestWeight(
            f"alpha_j = {alpha_j!r} outside the invertibility region ({lo!r}, {hi!r})"
        )
    orbit = iterate(gn, alpha_j, dim, bound=bound)
    weights = orbit[:dim]
    next_weight = orbit[dim]
    lower = np.array(weights[1:])
    ascent = np.flatnonzero(~(alpha_j > lower))
    if ascent.size:
        raise DescentViolation(int(ascent[0]) + 1, weights[ascent[0] + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        value = alpha_j * (alpha_j + 1.0) - lower * (lower + 1.0)
    ladder_sq = _clamped(value, NegativeLadderSquare).tolist()
    cut_residual = alpha_j + next_weight + 1.0
    if kind is RepKind.FINITE_CUT:
        if abs(cut_residual) > cut_tol:
            raise CutResidualTooLarge(
                f"|alpha_j + g^({dim})(alpha_j) + 1| = {abs(cut_residual)!r} > {cut_tol!r}"
            )
        if 0.0 in ladder_sq:
            raise ValueError(
                "an interior ladder square vanishes; the cut representation decomposes"
            )
    elif kind is RepKind.FINITE_PERIODIC:
        periodic_residual = next_weight - alpha_j
        if abs(periodic_residual) > cut_tol:
            raise PeriodicResidualTooLarge(
                f"|g^({dim})(alpha_j) - alpha_j| = {abs(periodic_residual)!r} > {cut_tol!r}"
            )
    return Gsl2Rep(
        gn,
        float(alpha_j),
        int(dim),
        kind,
        tuple(weights),
        tuple(ladder_sq),
        float(next_weight),
        float(cut_residual),
    )


def gsl2_csv_labels(rep: Gsl2Rep) -> tuple[str, tuple[str, ...]]:
    """``(basis description, state labels)`` of the representation's CSV files."""
    return (
        f"weight states m=0..{rep.dim - 1} (highest weight first), "
        f"alpha_j = {rep.alpha_j!r}, kind = {rep.kind.value}",
        tuple(f"m={m}" for m in range(rep.dim)),
    )


def matrix_J0(rep: Gsl2Rep) -> OperatorMatrix:
    """Diagonal generator: the weight ladder."""
    return OperatorMatrix(rep.weights, 0)


def matrix_Jplus(rep: Gsl2Rep) -> OperatorMatrix:
    """Raising operator: entry ``M_{m-1}`` at row ``m - 1``, column ``m``.

    Column 0 is identically zero: the highest weight state is annihilated.
    """
    ladder_sq = np.asarray(rep.ladder_sq, dtype=float)
    if np.any(ladder_sq < 0.0):
        raise ValueError("ladder squares must be non-negative")
    return OperatorMatrix(np.sqrt(ladder_sq), 1)


def matrix_Jminus(rep: Gsl2Rep) -> OperatorMatrix:
    """Lowering operator, the exact transpose of the raising operator."""
    return matrix_Jplus(rep).T


def _weight_casimir(j0, jp, jm, gn: CharFn) -> np.ndarray:
    """Diagonal of ``(J+ J- + J- J+ + J0(J0+1) + g(J0)(g(J0)+1)) / 2``; ``j0`` is diagonal."""
    gj0 = evaluate(gn, j0)
    return 0.5 * (
        _diag_product(jp, jm) + _diag_product(jm, jp) + j0 * (j0 + 1.0) + gj0 * (gj0 + 1.0)
    )


def _weight_residuals(j0, jp, jm, gn: CharFn, ncols: int) -> tuple[float, float, float]:
    """:func:`gha._relation_residuals` with ``L = J+``, ``R = J-`` on columns ``< ncols``.

    In order: ``J0 J- = J- g(J0)``, ``J+ J0 = g(J0) J+`` and
    ``[J+, J-] = J0(J0+1) - g(J0)(g(J0)+1)``; ``j0`` is the diagonal of ``J0``.
    """
    gj0 = evaluate(gn, j0)
    rhs = j0 * (j0 + 1.0) - gj0 * (gj0 + 1.0)
    return _relation_residuals(j0, jp, jm, gj0, rhs, ncols)


def casimir_gsl2(rep: Gsl2Rep) -> OperatorMatrix:
    """The invariant ``(J+ J- + J- J+ + J0(J0+1) + g(J0)(g(J0)+1)) / 2``.

    Constant ``alpha_j (alpha_j + 1)`` on every state of a finite (cut or
    periodic) representation; for a truncated infinite ladder the ``J+ J-``
    term leaks on the lowest retained state, so constancy holds on states
    ``0..dim-2`` only.
    """
    jp = matrix_Jplus(rep)
    c = _weight_casimir(matrix_J0(rep).values, jp, jp.T, rep.gn)
    return OperatorMatrix(c, 0)


def verify_gsl2_relations(rep: Gsl2Rep, tol: float = 1e-10) -> ResidualReport:
    """Residuals of the defining relations on the representation matrices.

    Finite kinds are checked on every entry; truncated-infinite ones on
    columns ``0..dim-2``, since the lowering operator maps the last retained
    state out of the space.
    """
    if rep.dim < 2:
        raise ValueError("relation residuals need dim >= 2")
    jp = matrix_Jplus(rep)
    ncols = rep.dim if rep.kind is not RepKind.TRUNCATED_INFINITE else rep.dim - 1
    residuals = _weight_residuals(matrix_J0(rep).values, jp, jp.T, rep.gn, ncols)
    names = ("j0_jminus_intertwine", "jplus_j0_intertwine", "commutator")
    return ResidualReport(dict(zip(names, residuals)), tol)


@dataclass(frozen=True)
class CutSolutions:
    """Roots of the closure equation, split by admissibility.

    ``included`` roots lie strictly inside the invertibility region and build
    a valid finite-cut representation; every other real root found (out of
    region, or failing the unitarity screen) is reported in ``excluded``
    rather than silently dropped.
    """

    included: tuple[float, ...]
    excluded: tuple[float, ...]


def _closure_roots(gn: CharFn, d: int, kind: RepKind, window, residual_tol):
    """Roots of ``g^(d)(x) + x + 1`` (cut) or ``g^(d)(x) - x`` within ``window``
    of the region boundary (or 0), flagged in-region."""
    if d < 1:
        raise ValueError("d must be >= 1")
    sign, shift = (1.0, 1.0) if kind is RepKind.FINITE_CUT else (-1.0, 0.0)
    lo_r, hi_r = invertibility_region(gn)
    center = hi_r if math.isfinite(hi_r) else lo_r if math.isfinite(lo_r) else 0.0
    roots = isolate_roots(
        gn.coefficients, d, sign, shift, center - window, center + window, residual_tol
    )
    return [(r, lo_r < r < hi_r) for r in roots]


def cut_condition_solve(
    gn: CharFn,
    d: int,
    window: float = 100.0,
    residual_tol: float = CUT_SOLVE_TOL,
) -> CutSolutions:
    """Solve ``alpha + g^(d)(alpha) + 1 = 0`` for ``d``-state cut reps.

    Roots out of region or failing to build a cut representation are excluded.
    """
    included, excluded = [], []
    for r, inside in _closure_roots(gn, d, RepKind.FINITE_CUT, window, residual_tol):
        if inside:
            try:
                build_gsl2(gn, r, d, RepKind.FINITE_CUT, cut_tol=residual_tol)
            except (GjsError, ValueError):
                excluded.append(r)
            else:
                included.append(r)
        else:
            excluded.append(r)
    return CutSolutions(tuple(included), tuple(excluded))


def periodic_condition_solve(
    gn: CharFn,
    d: int,
    window: float = 100.0,
    residual_tol: float = CUT_SOLVE_TOL,
) -> tuple[float, ...]:
    """Real solutions of ``g^(d)(alpha) = alpha`` inside the invertibility region.

    ``d = 1`` gives the fixed points (one-state representations); larger ``d``
    gives period-``d`` candidates, with no unitarity claim attached.
    """
    roots = _closure_roots(gn, d, RepKind.FINITE_PERIODIC, window, residual_tol)
    return tuple(r for r, inside in roots if inside)


def gsl2_to_dict(rep: Gsl2Rep) -> dict:
    return {
        "gn": charfn_to_dict(rep.gn),
        "alpha_j": rep.alpha_j,
        "dim": rep.dim,
        "kind": rep.kind.value,
        "weights": list(rep.weights),
        "ladder_sq": list(rep.ladder_sq),
        "next_weight": rep.next_weight,
        "cut_residual": rep.cut_residual,
    }


def gsl2_from_dict(data: dict) -> Gsl2Rep:
    rep = Gsl2Rep(
        charfn_from_dict(data["gn"]),
        float(data["alpha_j"]),
        int(data["dim"]),
        RepKind(data["kind"]),
        tuple(float(v) for v in data["weights"]),
        tuple(float(v) for v in data["ladder_sq"]),
        float(data["next_weight"]),
        float(data["cut_residual"]),
    )
    if len(rep.weights) != rep.dim or len(rep.ladder_sq) != max(rep.dim - 1, 0):
        raise ValueError("weight/ladder lengths inconsistent with dim")
    return rep

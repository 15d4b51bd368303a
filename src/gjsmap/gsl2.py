"""Highest-weight representations of the generalized sl(2) algebra.

A weight-like characteristic function ``g`` and a highest weight ``alpha_j``
fix the descending weight ladder ``alpha_j, g(alpha_j), g^(2)(alpha_j), ...``
with ladder squares

    M_m^2 = alpha_j (alpha_j + 1) - w (w + 1),   w = g^(m+1)(alpha_j).

A representation closes after ``d`` states when the next ladder square
vanishes, which happens in exactly two ways: the orbit returns to the highest
weight (``g^(d)(alpha_j) = alpha_j``, periodic) or the closure equation
``alpha_j + g^(d)(alpha_j) + 1 = 0`` holds (cut).  Solvers for both equations
search with ``roots.Composition.roots`` within the radius ``Composition.radius``
derives from ``g`` (no closure root lies past it): a linear ``g`` gives the exact
root rounded once, and every other root they report meets
``|F| <= CUT_SOLVE_TOL max(1, |x|)``.  Interval subdivision drops the boxes whose
enclosure keeps away from zero, finishes the monotone ones and bisects each sign
change; the iterated ``g`` is composed numerically, never expanded symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ._np import np
from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    Orientation,
    _diverged,
    evaluate,
    invertibility_region,
    iterate,
)
from .encoding import _record_data
from .errors import (
    CutResidualTooLarge,
    DescentViolation,
    GjsError,
    InvalidHighestWeight,
    NegativeLadderSquare,
    PeriodicResidualTooLarge,
)
from .gha import (
    OperatorMatrix,
    ResidualReport,
    _clamped,
    _diag_product,
    _readonly,
    _relation_residuals,
)
from .roots import Composition

#: Default residual accepted when a caller supplies the closure value
#: directly (loose enough for a 5-digit root); solver-recomputed roots are
#: held to CUT_SOLVE_TOL.
CUT_ACCEPT_TOL = 1e-4
CUT_SOLVE_TOL = 1e-9


class RepKind(Enum):
    FINITE_PERIODIC = "periodic"
    FINITE_CUT = "cut"
    TRUNCATED_INFINITE = "truncated"


#: Each finite kind's closure equation ``g^(d)(x) + sign x + shift = 0`` as
#: ``(sign, shift)``, with the error a defect above ``cut_tol`` raises and its text.
_CLOSURE = {
    RepKind.FINITE_CUT: (1.0, 1.0, CutResidualTooLarge, "|alpha_j + g^({})(alpha_j) + 1|"),
    RepKind.FINITE_PERIODIC: (-1.0, 0.0, PeriodicResidualTooLarge, "|g^({})(alpha_j) - alpha_j|"),
}


@dataclass(frozen=True)
class Gsl2Rep:
    """A ``dim``-state highest-weight representation.

    ``weights[m]`` is the eigenvalue of the diagonal generator on state ``m``
    (highest weight first); ``ladder_sq[m]`` the square of the step weight
    between states ``m`` and ``m + 1``; both are read-only float64 arrays.
    ``next_weight`` is the first weight past the truncation, from which
    ``cut_residual`` (the closure defect ``alpha_j + next_weight + 1``) is
    computed for any kind.
    """

    gn: CharFn
    alpha_j: float
    dim: int
    kind: RepKind
    weights: np.ndarray
    ladder_sq: np.ndarray
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
    return _build_gsl2(gn, alpha_j, dim, kind, cut_tol, bound, None)


def _build_gsl2(gn: CharFn, alpha_j: float, dim: int, kind: RepKind, cut_tol: float,
                bound: float, orbit: np.ndarray | None) -> Gsl2Rep:
    """:func:`build_gsl2` on ``orbit``, or on its own ``iterate`` if ``orbit`` is None.

    A given ``orbit`` is ``gn``'s orbit of ``alpha_j`` over ``dim`` steps as a
    read-only array, made under a bound of at least ``bound``; it is held to
    ``bound`` where ``iterate`` would be, with the same error.
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
    if orbit is None:
        orbit = _readonly(iterate(gn, alpha_j, dim, bound=bound))
    else:
        beyond = np.flatnonzero(~((np.abs(orbit) <= bound) & np.isfinite(orbit)))
        if beyond.size:
            raise _diverged(orbit[: beyond[0] + 1].tolist(), bound)
    weights, lower, next_weight = orbit[:dim], orbit[1:dim], float(orbit[dim])
    ascent = np.flatnonzero(~(alpha_j > lower))
    if ascent.size:
        raise DescentViolation(int(ascent[0]) + 1, float(lower[ascent[0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        value = alpha_j * (alpha_j + 1.0) - lower * (lower + 1.0)
    ladder_sq = _readonly(_clamped(value, NegativeLadderSquare))
    if kind in _CLOSURE:
        sign, shift, error, text = _CLOSURE[kind]
        defect = abs(next_weight + sign * alpha_j + shift)
        if defect > cut_tol:
            raise error(f"{text.format(dim)} = {defect!r} > {cut_tol!r}")
    if kind is RepKind.FINITE_CUT and (ladder_sq == 0.0).any():
        raise ValueError("an interior ladder square vanishes; the cut representation decomposes")
    cut_residual = alpha_j + next_weight + 1.0
    return Gsl2Rep(
        gn, float(alpha_j), int(dim), kind, weights, ladder_sq, next_weight, float(cut_residual)
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
    if np.any(rep.ladder_sq < 0.0):
        raise ValueError("ladder squares must be non-negative")
    return OperatorMatrix(np.sqrt(rep.ladder_sq), 1)


def matrix_Jminus(rep: Gsl2Rep) -> OperatorMatrix:
    """Lowering operator, the exact transpose of the raising operator."""
    return matrix_Jplus(rep).T


def _weight_casimir(j0, jp, gn: CharFn) -> np.ndarray:
    """Diagonal of ``(J+ J+^T + J+^T J+ + J0(J0+1) + g(J0)(g(J0)+1)) / 2``; ``j0`` is diagonal."""
    jm = jp.T
    with np.errstate(over="ignore"):
        gj0 = evaluate(gn, j0)
        return 0.5 * (
            _diag_product(jp, jm) + _diag_product(jm, jp) + j0 * (j0 + 1.0) + gj0 * (gj0 + 1.0)
        )


def _weight_residuals(j0, jp, jm, gn: CharFn, ncols: int) -> tuple[float, float, float]:
    """:func:`gha._relation_residuals` with ``L = J+``, ``R = J-`` on columns ``< ncols``.

    In order: ``J0 J- = J- g(J0)``, ``J+ J0 = g(J0) J+`` and
    ``[J+, J-] = J0(J0+1) - g(J0)(g(J0)+1)``; ``j0`` is the diagonal of ``J0``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a perturbed entry may overflow to inf
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
    return OperatorMatrix(_weight_casimir(matrix_J0(rep).values, matrix_Jplus(rep), rep.gn), 0)


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


def _closure_roots(gn: CharFn, d: int, kind: RepKind):
    """Roots of the closure equation of ``kind`` (see ``_CLOSURE``), flagged in-region.

    All lie within ``R = Composition.radius()``; ``[-R, 1.3 R]`` keeps a root at 0
    off the first-level box edges, where it would take the slower cluster path.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    sign, shift, _, _ = _CLOSURE[kind]
    lo_r, hi_r = invertibility_region(gn)
    closure = Composition(gn.coefficients, d, sign, shift)
    radius = closure.radius()
    return [(r, lo_r < r < hi_r) for r in closure.roots(-radius, 1.3 * radius, CUT_SOLVE_TOL)]


def cut_condition_solve(gn: CharFn, d: int) -> CutSolutions:
    """Solve ``alpha + g^(d)(alpha) + 1 = 0`` for ``d``-state cut reps.

    Roots out of region or failing to build a cut representation, with its
    closure residual held to ``CUT_SOLVE_TOL``, are excluded.
    """
    included, excluded = [], []
    for r, inside in _closure_roots(gn, d, RepKind.FINITE_CUT):
        if inside:
            try:
                build_gsl2(gn, r, d, RepKind.FINITE_CUT, cut_tol=CUT_SOLVE_TOL)
            except (GjsError, ValueError):
                excluded.append(r)
            else:
                included.append(r)
        else:
            excluded.append(r)
    return CutSolutions(tuple(included), tuple(excluded))


def periodic_condition_solve(gn: CharFn, d: int) -> tuple[float, ...]:
    """Real solutions of ``g^(d)(alpha) = alpha`` inside the invertibility region.

    ``d = 1`` gives the fixed points (one-state representations); larger ``d``
    gives period-``d`` candidates, with no unitarity claim attached.
    """
    roots = _closure_roots(gn, d, RepKind.FINITE_PERIODIC)
    return tuple(r for r, inside in roots if inside)


def gsl2_to_dict(rep: Gsl2Rep) -> dict:
    return _record_data(rep)


"""Highest-weight representations of the generalized sl(2) algebra.

A weight-like characteristic function ``g`` and a highest weight ``alpha_j``
fix the descending weight ladder ``alpha_j, g(alpha_j), g^(2)(alpha_j), ...``
with ladder squares

    M_m^2 = alpha_j (alpha_j + 1) - w (w + 1),   w = g^(m+1)(alpha_j).

A representation closes after ``d`` states when the next ladder square
vanishes, which happens in exactly two ways: the orbit returns to the highest
weight (``g^(d)(alpha_j) = alpha_j``, periodic) or the closure equation
``alpha_j + g^(d)(alpha_j) + 1 = 0`` holds (cut).  Solvers for both equations
scan a dense grid over the invertibility region and refine sign changes by
bisection; the iterated ``g`` is composed numerically, never expanded
symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    Orientation,
    _bisect,
    charfn_from_dict,
    charfn_to_dict,
    evaluate,
    derivative_at,
    invertibility_region,
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
from .gha import OperatorMatrix, ResidualReport

#: Ladder squares in [-LADDER_CLAMP_TOL, 0) are clamped to zero.
LADDER_CLAMP_TOL = 1e-12

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
        A ladder square below ``-LADDER_CLAMP_TOL``: not unitary.
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
    for m in range(1, dim):
        if not (alpha_j > weights[m]):
            raise DescentViolation(m, weights[m])
    ladder_sq = []
    top = alpha_j * (alpha_j + 1.0)
    for m in range(dim - 1):
        w = weights[m + 1]
        value = top - w * (w + 1.0)
        if value < -LADDER_CLAMP_TOL:
            raise NegativeLadderSquare(m, value)
        ladder_sq.append(max(value, 0.0))
    cut_residual = alpha_j + next_weight + 1.0
    if kind is RepKind.FINITE_CUT:
        if abs(cut_residual) > cut_tol:
            raise CutResidualTooLarge(
                f"|alpha_j + g^({dim})(alpha_j) + 1| = {abs(cut_residual)!r} > {cut_tol!r}"
            )
        if any(v == 0.0 for v in ladder_sq):
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


def _basis_label(rep: Gsl2Rep) -> str:
    return (
        f"weight states m=0..{rep.dim - 1} (highest weight first), "
        f"alpha_j = {rep.alpha_j!r}, kind = {rep.kind.value}"
    )


def _state_labels(rep: Gsl2Rep) -> tuple[str, ...]:
    return tuple(f"m={m}" for m in range(rep.dim))


def matrix_J0(rep: Gsl2Rep) -> OperatorMatrix:
    """Diagonal generator: the weight ladder."""
    return OperatorMatrix(np.diag(rep.weights), _basis_label(rep), _state_labels(rep))


def matrix_Jplus(rep: Gsl2Rep) -> OperatorMatrix:
    """Raising operator: entry ``M_{m-1}`` at row ``m - 1``, column ``m``.

    Column 0 is identically zero: the highest weight state is annihilated.
    """
    jp = np.zeros((rep.dim, rep.dim))
    for m in range(1, rep.dim):
        jp[m - 1, m] = math.sqrt(rep.ladder_sq[m - 1])
    return OperatorMatrix(jp, _basis_label(rep), _state_labels(rep))


def matrix_Jminus(rep: Gsl2Rep) -> OperatorMatrix:
    """Lowering operator, the exact transpose of the raising operator."""
    return OperatorMatrix(
        matrix_Jplus(rep).entries.T, _basis_label(rep), _state_labels(rep)
    )


def _g_diag(gn: CharFn, j0: np.ndarray) -> np.ndarray:
    """``g(J0)`` for a diagonal ``J0``, evaluated entry by entry."""
    return np.diag([evaluate(gn, w) for w in np.diag(j0).tolist()])


def _weight_casimir(j0, jp, jm, gn: CharFn) -> np.ndarray:
    """``(J+ J- + J- J+ + J0(J0+1) + g(J0)(g(J0)+1)) / 2`` from the matrices."""
    gj0 = _g_diag(gn, j0)
    eye = np.eye(len(j0))
    return 0.5 * (jp @ jm + jm @ jp + j0 @ (j0 + eye) + gj0 @ (gj0 + eye))


def _weight_residuals(j0, jp, jm, gn: CharFn, ncols: int) -> tuple[float, float, float]:
    """Max-abs residuals of the three defining relations on columns ``< ncols``.

    In order: ``J0 J- = J- g(J0)``, ``J+ J0 = g(J0) J+`` and
    ``[J+, J-] = J0(J0+1) - g(J0)(g(J0)+1)``.  ``jm`` is taken as given, not
    as the transpose of ``jp``, so a lowering operator that drifted from it
    still shows up.
    """
    gj0 = _g_diag(gn, j0)
    eye = np.eye(len(j0))
    r_lower = j0 @ jm - jm @ gj0
    r_raise = jp @ j0 - gj0 @ jp
    r_comm = (jp @ jm - jm @ jp) - (j0 @ (j0 + eye) - gj0 @ (gj0 + eye))
    return tuple(float(np.max(np.abs(r[:, :ncols]))) for r in (r_lower, r_raise, r_comm))


def casimir_gsl2(rep: Gsl2Rep) -> OperatorMatrix:
    """The invariant ``(J+ J- + J- J+ + J0(J0+1) + g(J0)(g(J0)+1)) / 2``.

    Constant ``alpha_j (alpha_j + 1)`` on every state of a finite (cut or
    periodic) representation; for a truncated infinite ladder the ``J+ J-``
    term leaks on the lowest retained state, so constancy holds on states
    ``0..dim-2`` only.
    """
    jp = matrix_Jplus(rep).entries
    c = _weight_casimir(matrix_J0(rep).entries, jp, jp.T, rep.gn)
    return OperatorMatrix(c, _basis_label(rep), _state_labels(rep))


def verify_gsl2_relations(rep: Gsl2Rep, tol: float = 1e-10) -> ResidualReport:
    """Residuals of the defining relations on the representation matrices.

    Finite kinds are checked on every entry; truncated-infinite ones on
    columns ``0..dim-2``, since the lowering operator maps the last retained
    state out of the space.
    """
    if rep.dim < 2:
        raise ValueError("relation residuals need dim >= 2")
    jp = matrix_Jplus(rep).entries
    ncols = rep.dim if rep.kind is not RepKind.TRUNCATED_INFINITE else rep.dim - 1
    residuals = _weight_residuals(matrix_J0(rep).entries, jp, jp.T, rep.gn, ncols)
    names = ("j0_jminus_intertwine", "jplus_j0_intertwine", "commutator")
    return ResidualReport(dict(zip(names, residuals)), tol)


def _compose(gn: CharFn, x, d: int):
    """``g^(d)`` applied elementwise; ``x`` may be a float or an ndarray."""
    y = x
    for _ in range(d):
        y = evaluate(gn, y)
    return y


def _compose_derivative(gn: CharFn, x, d: int):
    """Chain-rule derivative of ``g^(d)``; ``x`` may be a float or ndarray."""
    out = 1.0
    y = x
    for _ in range(d):
        out = out * derivative_at(gn, y)
        y = evaluate(gn, y)
    return out


def _scan_roots(
    func: Callable,
    dfunc: Callable[[float], float],
    lo: float,
    hi: float,
    step: float,
    residual_tol: float,
) -> list[float]:
    """Roots of a scalar function on ``[lo, hi]`` from a dense grid scan.

    Sign changes between finite neighbouring samples are refined by
    bisection.  Tangent (no-sign-change) roots are recovered at the zeros of
    ``dfunc`` where ``|func|`` is small.  Every candidate must meet
    ``residual_tol`` relative to ``max(1, |x|)``.
    """
    n = max(int(math.ceil((hi - lo) / step)) + 1, 2)
    xs = np.linspace(lo, hi, n)
    with np.errstate(over="ignore", invalid="ignore"):
        ys = np.broadcast_to(np.asarray(func(xs), dtype=float), xs.shape)
    finite = np.isfinite(ys)
    roots = [float(x) for x, y in zip(xs, ys) if y == 0.0]
    flips = np.nonzero(
        finite[:-1]
        & finite[1:]
        & (np.signbit(ys[:-1]) != np.signbit(ys[1:]))
        & (ys[:-1] != 0.0)
        & (ys[1:] != 0.0)
    )[0]
    for i in flips:
        roots.append(
            _bisect(func, float(xs[i]), float(xs[i + 1]), float(ys[i]), float(ys[i + 1]))
        )
    # Tangent roots: bracket the derivative instead, then keep stationary
    # points where the function itself vanishes.
    with np.errstate(over="ignore", invalid="ignore"):
        dys = np.broadcast_to(np.asarray(dfunc(xs), dtype=float), xs.shape)
    dfinite = np.isfinite(dys)
    dflips = np.nonzero(
        dfinite[:-1]
        & dfinite[1:]
        & (np.signbit(dys[:-1]) != np.signbit(dys[1:]))
    )[0]
    for i in dflips:
        c = _bisect(
            dfunc, float(xs[i]), float(xs[i + 1]), float(dys[i]), float(dys[i + 1])
        )
        if abs(func(c)) <= residual_tol * max(1.0, abs(c)):
            roots.append(c)
    roots = [r for r in roots if abs(func(r)) <= residual_tol * max(1.0, abs(r))]
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if deduped and abs(r - deduped[-1]) <= 10.0 * residual_tol * max(1.0, abs(r)):
            continue
        deduped.append(r)
    return deduped


def _scan_window(gn: CharFn, window: float) -> tuple[float, float]:
    lo_r, hi_r = invertibility_region(gn)
    if math.isfinite(hi_r):
        center = hi_r
    elif math.isfinite(lo_r):
        center = lo_r
    else:
        center = 0.0
    return center - window, center + window


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


def cut_condition_solve(
    gn: CharFn,
    d: int,
    window: float = 100.0,
    step: float = 1e-4,
    residual_tol: float = CUT_SOLVE_TOL,
) -> CutSolutions:
    """Solve ``alpha + g^(d)(alpha) + 1 = 0`` for ``d``-state cut reps.

    The scan covers ``window`` on both sides of the invertibility boundary so
    that out-of-region roots are still found and reported as excluded.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lo, hi = _scan_window(gn, window)

    def func(x):
        return x + _compose(gn, x, d) + 1.0

    def dfunc(x):
        return 1.0 + _compose_derivative(gn, x, d)

    roots = _scan_roots(func, dfunc, lo, hi, step, residual_tol)
    lo_r, hi_r = invertibility_region(gn)
    included, excluded = [], []
    for r in roots:
        if lo_r < r < hi_r:
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
    step: float = 1e-4,
    residual_tol: float = CUT_SOLVE_TOL,
) -> tuple[float, ...]:
    """Real solutions of ``g^(d)(alpha) = alpha`` inside the invertibility region.

    ``d = 1`` gives the fixed points (one-state representations); larger ``d``
    gives period-``d`` candidates, with no unitarity claim attached.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lo, hi = _scan_window(gn, window)

    def func(x):
        return _compose(gn, x, d) - x

    def dfunc(x):
        return _compose_derivative(gn, x, d) - 1.0

    roots = _scan_roots(func, dfunc, lo, hi, step, residual_tol)
    lo_r, hi_r = invertibility_region(gn)
    return tuple(r for r in roots if lo_r < r < hi_r)


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

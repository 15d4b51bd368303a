"""Highest-weight representations of the generalized sl(2) algebra.

A weight-like characteristic function ``g`` and a highest weight ``alpha_j``
fix the descending weight ladder ``alpha_j, g(alpha_j), g^(2)(alpha_j), ...``
with ladder squares

    M_m^2 = alpha_j (alpha_j + 1) - w (w + 1),   w = g^(m+1)(alpha_j).

A representation closes after ``d`` states when the next ladder square
vanishes, which happens in exactly two ways: the orbit returns to the highest
weight (``g^(d)(alpha_j) = alpha_j``, periodic) or the closure equation
``alpha_j + g^(d)(alpha_j) + 1 = 0`` holds (cut).  Solvers for both equations
scan a grid of ``2 window / step`` samples around the invertibility boundary
and refine sign changes by bisection; the iterated ``g`` is composed
numerically, never expanded symbolically.

The scan evaluates only the grid blocks that can hold a root.  It splits the
grid into blocks of ``BLOCK`` sample pairs and bounds the closure function
over each block's box by interval arithmetic: the same Horner operations, in
the same order, on box ends (``charfun._horner_interval``).  Rounding to
nearest is monotone, so every float the closure function returns inside a box
lies within the box's bounds.  A block whose bounds keep away from zero by
twice the residual tolerance therefore holds no zero sample, no sign change
and no tangent candidate that would pass the residual test; skipping it
leaves the roots bit for bit as the full grid gives them.  Most of the
default window is such blocks, where ``g^(d)`` has run off towards infinity.
The same test then runs on the ``SUB``-pair boxes of each kept block, by the
same argument per box, and only the boxes it keeps are sampled: they are the
rows of one sample array, scanned in a single pass.
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
    _derivative,
    _horner,
    _horner_interval,
    charfn_from_dict,
    charfn_to_dict,
    evaluate,
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
from .gha import OperatorMatrix, ResidualReport, _clamped, _diag_product, _relation_residuals

#: Sample pairs per block and per box of the closure scan's two pruning
#: levels; see :func:`_scan_roots`.
BLOCK = 4096
SUB = 64

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


def _compose(gn: CharFn, x, d: int):
    """``g^(d)`` applied elementwise; ``x`` may be a float or an ndarray."""
    y = x
    for _ in range(d):
        y = evaluate(gn, y)
    return y


def _compose_interval(gn: CharFn, lo, hi, d: int):
    """Enclosure of :func:`_compose` over the boxes ``[lo, hi]`` (ndarrays)."""
    for _ in range(d):
        lo, hi = _horner_interval(gn.coefficients, lo, hi)
    return lo, hi


def _closure_functions(gn: CharFn, d: int, kind: RepKind):
    """``(func, dfunc, enclosure)`` of the closure equation of a finite ``kind``.

    ``func`` is ``x + g^(d)(x) + 1`` (cut) or ``g^(d)(x) - x`` (periodic) and
    ``dfunc`` its chain-rule derivative, both for a float or an ndarray.
    ``enclosure(lo, hi)`` bounds ``func`` over the boxes ``[lo, hi]`` by the
    same operations in the same order (:func:`_compose_interval`).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    coeffs = gn.coefficients
    dcoeffs = _derivative(coeffs)

    def slope(x):
        # g'(x) g'(g(x)) ... g'(g^(d-1)(x)): g itself is needed d - 1 times
        out = _horner(dcoeffs, x)
        for _ in range(d - 1):
            x = _horner(coeffs, x)
            out = out * _horner(dcoeffs, x)
        return out

    if kind is RepKind.FINITE_CUT:

        def func(x):
            return x + _compose(gn, x, d) + 1.0

        def dfunc(x):
            return 1.0 + slope(x)

        def enclosure(lo, hi):
            ylo, yhi = _compose_interval(gn, lo, hi, d)
            return lo + ylo + 1.0, hi + yhi + 1.0

    else:

        def func(x):
            return _compose(gn, x, d) - x

        def dfunc(x):
            return slope(x) - 1.0

        def enclosure(lo, hi):
            ylo, yhi = _compose_interval(gn, lo, hi, d)
            return ylo - hi, yhi - lo

    return func, dfunc, enclosure


def _scan_roots(
    func: Callable,
    dfunc: Callable,
    enclosure: Callable,
    lo: float,
    hi: float,
    step: float,
    residual_tol: float,
) -> list[float]:
    """Roots of a scalar function on ``[lo, hi]`` from a grid scan.

    The grid is ``np.linspace(lo, hi, n)`` with spacing at most ``step``:
    sample ``i`` is ``i * h + lo`` and the last is ``hi``.  Zero samples are
    roots; sign changes between finite neighbouring samples are refined by
    bisection; tangent (no-sign-change) roots are recovered at the zeros of
    ``dfunc`` where ``|func|`` is small.  Every candidate must meet
    ``residual_tol`` relative to ``max(1, |x|)``.

    Only some samples are evaluated.  The grid splits into blocks of
    ``BLOCK`` sample pairs, neighbouring blocks sharing one sample, and
    ``enclosure`` bounds ``func`` over each block's box.  A block whose bounds
    lie above ``t`` or below ``-t``, with ``t = 2 residual_tol max(1, |x|)``
    over the box, holds no zero sample, no sign change and no tangent
    candidate that could pass the residual test, so skipping it changes no
    root; a block with a NaN bound is kept.  The same test then splits each
    kept block into boxes of ``SUB`` pairs and drops a box for the same
    reason, per box.  The kept boxes are the rows of one sample array, so no
    neighbour pair spans a gap; a short last row repeats ``hi``, and a zero
    sample or a bracket two rows share is deduplicated.
    """
    if not math.isfinite((hi - lo) / step):
        raise ValueError(f"the scan of [{lo!r}, {hi!r}] at step {step!r} has no finite size")
    n = max(int(math.ceil((hi - lo) / step)) + 1, 2)
    # One float64 per block start: numpy sizes no array above intp's maximum bytes.
    if 8 * -(-(n - 1) // BLOCK) > np.iinfo(np.intp).max:
        raise ValueError(f"the scan of [{lo!r}, {hi!r}] at step {step!r} is too large for numpy")
    h = (hi - lo) / (n - 1)
    starts = np.arange(0, n - 1, BLOCK, dtype=float)
    for size in (BLOCK, min(SUB, BLOCK)):
        if size < BLOCK:
            starts = (starts[:, None] + np.arange(0, BLOCK, size)).ravel()
            starts = starts[starts < n - 1]
        ends = np.minimum(starts + size, n - 1)
        box_lo = starts * h + lo
        box_hi = ends * h + lo
        # The last sample is hi itself, which rounding may place on either
        # side of (n - 1) * h + lo.
        if ends[-1] == n - 1:
            box_lo[-1] = min(box_lo[-1], hi)
            box_hi[-1] = max(box_hi[-1], hi)
        with np.errstate(over="ignore", invalid="ignore"):
            f_lo, f_hi = enclosure(box_lo, box_hi)
            t = 2.0 * residual_tol * np.maximum(1.0, np.maximum(np.abs(box_lo), np.abs(box_hi)))
            keep = ~((f_lo > t) | (f_hi < -t))
        if not keep.any():
            return []
        starts = starts[keep]
    index = np.minimum(starts[:, None] + np.arange(size + 1), n - 1)
    xs = index * h + lo
    xs[index == n - 1] = hi
    with np.errstate(over="ignore", invalid="ignore"):
        ys = np.broadcast_to(np.asarray(func(xs), dtype=float), xs.shape)
        dys = np.broadcast_to(np.asarray(dfunc(xs), dtype=float), xs.shape)
    roots = xs[ys == 0.0].tolist()
    finite, dfinite = np.isfinite(ys), np.isfinite(dys)
    flips = (
        finite[:, :-1]
        & finite[:, 1:]
        & (np.signbit(ys[:, :-1]) != np.signbit(ys[:, 1:]))
        & (ys[:, :-1] != 0.0)
        & (ys[:, 1:] != 0.0)
    )
    # Tangent roots: bracket the derivative instead; the residual test below
    # keeps the stationary points where the function itself vanishes.
    dflips = dfinite[:, :-1] & dfinite[:, 1:] & (np.signbit(dys[:, :-1]) != np.signbit(dys[:, 1:]))
    for f, fs, pairs in ((func, ys, flips), (dfunc, dys, dflips)):
        # Row-major pair numbers: np.nonzero of a 2-D mask is far slower.
        for i, j in zip(*np.divmod(np.flatnonzero(pairs), size)):
            u, v = float(xs[i, j]), float(xs[i, j + 1])
            roots.append(_bisect(f, u, v, float(fs[i, j]), float(fs[i, j + 1])))
    roots = [r for r in roots if abs(func(r)) <= residual_tol * max(1.0, abs(r))]
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if deduped and abs(r - deduped[-1]) <= 10.0 * residual_tol * max(1.0, abs(r)):
            continue
        deduped.append(r)
    return deduped


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


def _closure_roots(gn: CharFn, d: int, kind: RepKind, window, step, residual_tol):
    """Closure roots within ``window`` of the region boundary (or 0), flagged in-region."""
    func, dfunc, enclosure = _closure_functions(gn, d, kind)
    lo_r, hi_r = invertibility_region(gn)
    center = hi_r if math.isfinite(hi_r) else lo_r if math.isfinite(lo_r) else 0.0
    roots = _scan_roots(
        func, dfunc, enclosure, center - window, center + window, step, residual_tol
    )
    return [(r, lo_r < r < hi_r) for r in roots]


def cut_condition_solve(
    gn: CharFn,
    d: int,
    window: float = 100.0,
    step: float = 1e-4,
    residual_tol: float = CUT_SOLVE_TOL,
) -> CutSolutions:
    """Solve ``alpha + g^(d)(alpha) + 1 = 0`` for ``d``-state cut reps.

    Roots out of region or failing to build a cut representation are excluded.
    """
    included, excluded = [], []
    for r, inside in _closure_roots(gn, d, RepKind.FINITE_CUT, window, step, residual_tol):
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
    step: float = 1e-4,
    residual_tol: float = CUT_SOLVE_TOL,
) -> tuple[float, ...]:
    """Real solutions of ``g^(d)(alpha) = alpha`` inside the invertibility region.

    ``d = 1`` gives the fixed points (one-state representations); larger ``d``
    gives period-``d`` candidates, with no unitarity claim attached.
    """
    roots = _closure_roots(gn, d, RepKind.FINITE_PERIODIC, window, step, residual_tol)
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

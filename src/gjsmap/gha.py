"""Fock-space matrices for one generalized Heisenberg algebra.

A characteristic function ``f`` and a vacuum eigenvalue ``alpha0`` fix the
whole ladder: level ``m`` carries eigenvalue ``f^(m)(alpha0)`` and the rung
connecting levels ``m`` and ``m + 1`` has weight
``M_m = sqrt(f^(m+1)(alpha0) - alpha0)``.  Every operator on the first ``D``
levels is stored as its one nonzero diagonal, plus the generalized Gauss
numbers that normalize repeated applications of the raising operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

from ._np import np
from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    Orientation,
    evaluate,
    invertibility_region,
    iterate,
)
from .encoding import _record_data
from .errors import FixedPointVacuum, InvalidVacuum, NegativeNormSquared

#: Oscillator norm squares in [-CLAMP_TOL, 0) are rounding around an exact zero
#: and are clamped to it; anything lower is an error.  Weight ladder squares need
#: no band: ``gsl2._ladder_squares`` gives each the exact sign of its strip test.
CLAMP_TOL = 1e-12

#: |f(alpha0) - alpha0| at or below this makes Gauss numbers undefined.
GAUSS_DENOMINATOR_TOL = 1e-14


def _readonly(values) -> np.ndarray:
    """``values`` as a read-only float64 array.

    A float64 array is frozen in place, not copied: pass a fresh one, or
    one nobody writes to again.  Anything else is converted once.
    """
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class OperatorMatrix:
    """The square matrix ``np.diag(values, offset)``; ``values`` is made :func:`_readonly`."""

    values: np.ndarray
    offset: int

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, built on each access; read-only."""
        return _readonly(np.diag(self.values, self.offset))

    @property
    def T(self) -> "OperatorMatrix":
        """The transpose: the same values at the opposite offset."""
        return replace(self, offset=-self.offset)


def _diag_product(x: OperatorMatrix, y: OperatorMatrix) -> np.ndarray:
    """Diagonal of the product ``x y`` for ``x`` at offset ``-k`` and ``y`` at offset ``k``.

    Each entry has one term: ``x.values * y.values``, after ``k`` zeros or before ``-k``.
    """
    k = y.offset
    out = np.zeros(x.values.size + abs(k))
    out[max(k, 0) : out.size + min(k, 0)] = x.values * y.values
    return out


def write_matrix_csv(matrix: OperatorMatrix, path, labels: tuple[str, tuple[str, ...]]) -> None:
    """Row-major CSV dump; ``labels`` is ``(basis description, state labels)``."""
    import csv

    basis, states = labels
    entries = matrix.entries
    if len(states) != len(entries):
        raise ValueError(f"{len(states)} state labels for a {len(entries)}-state matrix")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"basis: {basis}", *states])
        cells = map(repr, entries.ravel().tolist())
        writer.writerows([label, *islice(cells, len(states))] for label in states)


@dataclass(frozen=True)
class ResidualReport:
    """Max-abs residual per relation, judged against a single tolerance."""

    residuals: dict[str, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def to_dict(self) -> dict:
        return {
            "relations": dict(self.residuals),
            "max_residual": self.max_residual,
            "tol": self.tol,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class GhaRep:
    """Truncated Fock representation of one generalized Heisenberg algebra.

    ``eigenvalues[m]`` is the level-``m`` eigenvalue ``f^(m)(alpha0)`` and
    ``ladder[m]`` the rung weight ``M_m`` for ``m = 0..dim-2``; both are
    read-only float64 arrays.
    """

    fn: CharFn
    alpha0: float
    dim: int
    eigenvalues: np.ndarray
    ladder: np.ndarray


def build_gha(
    fn: CharFn, alpha0: float, dim: int, bound: float = DIVERGENCE_BOUND
) -> GhaRep:
    """Construct the first ``dim`` levels of the ladder based at ``alpha0``.

    Raises
    ------
    InvalidVacuum
        If ``alpha0`` is not strictly inside the invertibility region.
    NegativeNormSquared
        If some ``f^(m+1)(alpha0) - alpha0`` is below ``-CLAMP_TOL``;
        the truncation is not unitarizable.  Values merely grazing zero are
        clamped to an exact zero rung.
    """
    if fn.orientation is not Orientation.OSCILLATOR:
        raise ValueError("oscillator-side algebra needs an oscillator-like function")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lo, hi = invertibility_region(fn)
    if not (lo < alpha0 < hi):
        raise InvalidVacuum(
            f"alpha0 = {alpha0!r} outside the invertibility region ({lo!r}, {hi!r})"
        )
    eigenvalues = _readonly(iterate(fn, alpha0, dim - 1, bound=bound))
    with np.errstate(over="ignore"):
        norm_sq = eigenvalues[1:] - eigenvalues[0]
    below = np.flatnonzero(norm_sq < -CLAMP_TOL)
    if below.size:
        raise NegativeNormSquared(int(below[0]), float(norm_sq[below[0]]))
    ladder = _readonly(np.sqrt(np.where(norm_sq < 0.0, 0.0, norm_sq)))
    return GhaRep(fn, float(alpha0), int(dim), eigenvalues, ladder)


def gha_csv_labels(rep: GhaRep) -> tuple[str, tuple[str, ...]]:
    """``(basis description, state labels)`` of the ladder's CSV files."""
    return (
        f"Fock levels |0>..|{rep.dim - 1}>, vacuum eigenvalue {rep.alpha0!r}",
        tuple(f"|{m}>" for m in range(rep.dim)),
    )


def matrix_H(rep: GhaRep) -> OperatorMatrix:
    """Diagonal Hamiltonian: the iterated eigenvalues."""
    return OperatorMatrix(rep.eigenvalues, 0)


def matrix_Adag(rep: GhaRep) -> OperatorMatrix:
    """Raising operator: entry ``M_m`` at row ``m + 1``, column ``m``."""
    return OperatorMatrix(rep.ladder, -1)


def matrix_A(rep: GhaRep) -> OperatorMatrix:
    """Lowering operator, the exact transpose of the raising operator."""
    return matrix_Adag(rep).T


def matrix_N(rep: GhaRep) -> OperatorMatrix:
    """Number operator: diagonal ``0..dim-1``."""
    return OperatorMatrix(np.arange(rep.dim, dtype=float), 0)


def casimir_gha(rep: GhaRep) -> OperatorMatrix:
    """The invariant combination ``Adag A - H``.

    Equals ``-alpha0`` times the identity on every level of the truncation;
    the alternative form ``A Adag - f(H)`` fails on the top level of any
    finite truncation by construction and is not used here.
    """
    adag = matrix_Adag(rep)
    c = _diag_product(adag, adag.T) - matrix_H(rep).values
    return OperatorMatrix(c, 0)


def _gauss(fn: CharFn, x0: float, orbit) -> tuple[float, np.ndarray]:
    """``(fn(x0) - x0, Gauss numbers)`` of the orbit ``x0, fn(x0), ...``.

    ``[m] = (x_m - x_0) / (fn(x0) - x0)`` and ``[0] = 0``; raises
    :class:`FixedPointVacuum` if ``fn(x0) - x0`` is (numerically) zero.
    """
    denom = evaluate(fn, x0) - x0
    if abs(denom) <= GAUSS_DENOMINATOR_TOL:
        raise FixedPointVacuum(f"f(alpha0) - alpha0 = {denom!r}; Gauss numbers undefined")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed denom gives inf / inf
        out = np.subtract(orbit, orbit[0]) / denom
    out[0] = 0.0
    return denom, out


def gauss_numbers(fn: CharFn, alpha0: float, m_max: int) -> list[float]:
    """Generalized Gauss numbers ``[0], [1], ..., [m_max]`` in one pass.

    ``[m] = (f^(m)(a0) - a0) / (f(a0) - a0)``: ``f(x) = x + 1`` gives back the
    plain integers, ``f(x) = q x + 1`` the q-numbers.

    Raises
    ------
    FixedPointVacuum
        If ``alpha0`` is (numerically) a fixed point of ``fn``.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    return _gauss(fn, alpha0, iterate(fn, alpha0, m_max, bound=math.inf))[1].tolist()


def gauss_factorial(fn: CharFn, alpha0: float, m: int) -> float:
    """``[m]! = [m][m-1]...[1]``, with the empty product ``[0]! = 1``."""
    return math.prod(gauss_numbers(fn, alpha0, m)[1:], start=1.0)


def _relation_residuals(d, l_op, r_op, c_d, comm_rhs, ncols: int, *extra) -> tuple:
    """Max-abs residuals of ``D R = R c(D)``, ``L D = c(D) L`` and ``[L, R] = comm_rhs``.

    ``d``, ``c_d``, ``comm_rhs`` and any ``extra`` residuals are diagonals, ``l_op`` sits
    at offset +1 and ``r_op`` at -1; only columns ``< ncols`` count.
    The oscillator algebra passes ``(H, A, Adag)``, the weight algebras
    ``(J0, J+, J-)``.  ``l_op`` and ``r_op`` are both taken as given, so a
    stored operator that drifted from the other's transpose still shows up.
    """
    lv, rv = l_op.values, r_op.values
    r_right = (d[1:] * rv - rv * c_d[:-1])[:ncols]
    r_left = (lv * d[1:] - c_d[:-1] * lv)[: ncols - 1]
    r_comm = ((_diag_product(l_op, r_op) - _diag_product(r_op, l_op)) - comm_rhs)[:ncols]
    residuals = (r_right, r_left, r_comm, *(x[:ncols] for x in extra))
    return tuple(float(np.abs(v).max(initial=0.0)) for v in residuals)


def verify_gha_relations(rep: GhaRep, tol: float = 1e-10) -> ResidualReport:
    """Residuals of the defining relations on the truncated matrices.

    Residuals are measured on columns ``0..dim-2`` only: the raising operator
    maps the top truncated level out of the space, so no finite truncation can
    satisfy the commutation relation on its last column.  That is a property
    of truncation, not of the algebra.  The agreement of the two Casimir forms
    (``Adag A - H`` versus ``A Adag - f(H)``) is reported on the same interior
    columns.
    """
    if rep.dim < 2:
        raise ValueError("relation residuals need dim >= 2")
    h = matrix_H(rep).values
    adag = matrix_Adag(rep)
    with np.errstate(over="ignore", invalid="ignore"):  # a perturbed entry may overflow to inf
        f_h = evaluate(rep.fn, h)
        r_casimir = casimir_gha(rep).values - (_diag_product(adag.T, adag) - f_h)
        residuals = _relation_residuals(h, adag.T, adag, f_h, f_h - h, rep.dim - 1, r_casimir)
    names = ("h_adag_intertwine", "a_h_intertwine", "commutator", "casimir_forms")
    return ResidualReport(dict(zip(names, residuals)), tol)


def gha_to_dict(rep: GhaRep) -> dict:
    return _record_data(rep)


"""Fock-space matrices for one generalized Heisenberg algebra.

A characteristic function ``f`` and a vacuum eigenvalue ``alpha0`` fix the
whole ladder: level ``m`` carries eigenvalue ``f^(m)(alpha0)`` and the rung
connecting levels ``m`` and ``m + 1`` has weight
``M_m = sqrt(f^(m+1)(alpha0) - alpha0)``.  Everything here is dense real
matrices on the first ``D`` levels, plus the generalized Gauss numbers that
normalize repeated applications of the raising operator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    Orientation,
    charfn_from_dict,
    charfn_to_dict,
    evaluate,
    invertibility_region,
    iterate,
)
from .errors import FixedPointVacuum, InvalidVacuum, NegativeNormSquared

#: Norm squares in [-NORM_CLAMP_TOL, 0) are grazing the fixed point and are
#: clamped to zero; anything lower aborts construction.
NORM_CLAMP_TOL = 1e-12

#: |f(alpha0) - alpha0| at or below this makes Gauss numbers undefined.
GAUSS_DENOMINATOR_TOL = 1e-14


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real matrix together with a description of its ordered basis."""

    entries: np.ndarray
    basis_label: str
    state_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        if self.state_labels is not None:
            object.__setattr__(self, "state_labels", tuple(self.state_labels))


def write_matrix_csv(matrix: OperatorMatrix, path) -> None:
    """Row-major CSV dump; the header row carries the basis description."""
    entries = matrix.entries
    labels = matrix.state_labels or tuple(str(i) for i in range(entries.shape[1]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"basis: {matrix.basis_label}", *labels])
        for row_label, row in zip(
            matrix.state_labels or tuple(str(i) for i in range(entries.shape[0])),
            entries,
        ):
            writer.writerow([row_label, *[repr(float(v)) for v in row]])


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
    ``ladder[m]`` the rung weight ``M_m`` for ``m = 0..dim-2``.
    """

    fn: CharFn
    alpha0: float
    dim: int
    eigenvalues: tuple[float, ...]
    ladder: tuple[float, ...]


def build_gha(
    fn: CharFn, alpha0: float, dim: int, bound: float = DIVERGENCE_BOUND
) -> GhaRep:
    """Construct the first ``dim`` levels of the ladder based at ``alpha0``.

    Raises
    ------
    InvalidVacuum
        If ``alpha0`` is not strictly inside the invertibility region.
    NegativeNormSquared
        If some ``f^(m+1)(alpha0) - alpha0`` is below ``-NORM_CLAMP_TOL``;
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
    eigenvalues = iterate(fn, alpha0, dim - 1, bound=bound)
    ladder = []
    for m in range(dim - 1):
        norm_sq = eigenvalues[m + 1] - eigenvalues[0]
        if norm_sq < -NORM_CLAMP_TOL:
            raise NegativeNormSquared(m, norm_sq)
        ladder.append(math.sqrt(max(norm_sq, 0.0)))
    return GhaRep(fn, float(alpha0), int(dim), tuple(eigenvalues), tuple(ladder))


def _basis_label(rep: GhaRep) -> str:
    return f"Fock levels |0>..|{rep.dim - 1}>, vacuum eigenvalue {rep.alpha0!r}"


def _state_labels(rep: GhaRep) -> tuple[str, ...]:
    return tuple(f"|{m}>" for m in range(rep.dim))


def matrix_H(rep: GhaRep) -> OperatorMatrix:
    """Diagonal Hamiltonian: the iterated eigenvalues."""
    return OperatorMatrix(np.diag(rep.eigenvalues), _basis_label(rep), _state_labels(rep))


def matrix_Adag(rep: GhaRep) -> OperatorMatrix:
    """Raising operator: entry ``M_m`` at row ``m + 1``, column ``m``."""
    a = np.zeros((rep.dim, rep.dim))
    for m, v in enumerate(rep.ladder):
        a[m + 1, m] = v
    return OperatorMatrix(a, _basis_label(rep), _state_labels(rep))


def matrix_A(rep: GhaRep) -> OperatorMatrix:
    """Lowering operator, the exact transpose of the raising operator."""
    return OperatorMatrix(
        matrix_Adag(rep).entries.T, _basis_label(rep), _state_labels(rep)
    )


def matrix_N(rep: GhaRep) -> OperatorMatrix:
    """Number operator: diagonal ``0..dim-1``."""
    return OperatorMatrix(
        np.diag(np.arange(rep.dim, dtype=float)), _basis_label(rep), _state_labels(rep)
    )


def casimir_gha(rep: GhaRep) -> OperatorMatrix:
    """The invariant combination ``Adag A - H``.

    Equals ``-alpha0`` times the identity on every level of the truncation;
    the alternative form ``A Adag - f(H)`` fails on the top level of any
    finite truncation by construction and is not used here.
    """
    adag = matrix_Adag(rep).entries
    h = matrix_H(rep).entries
    return OperatorMatrix(adag @ adag.T - h, _basis_label(rep), _state_labels(rep))


def gauss_numbers(
    fn: CharFn, alpha0: float, m_max: int, bound: float = math.inf
) -> list[float]:
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
    denom = evaluate(fn, alpha0) - alpha0
    if abs(denom) <= GAUSS_DENOMINATOR_TOL:
        raise FixedPointVacuum(
            f"f(alpha0) - alpha0 = {denom!r}; Gauss numbers undefined"
        )
    xs = iterate(fn, alpha0, m_max, bound=bound)
    return [0.0] + [(xs[m] - xs[0]) / denom for m in range(1, m_max + 1)]


def gauss_factorial(
    fn: CharFn, alpha0: float, m: int, bound: float = math.inf
) -> float:
    """``[m]! = [m][m-1]...[1]``, with the empty product ``[0]! = 1``."""
    numbers = gauss_numbers(fn, alpha0, m, bound=bound)
    out = 1.0
    for k in range(1, m + 1):
        out *= numbers[k]
    return out


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
    h = matrix_H(rep).entries
    adag = matrix_Adag(rep).entries
    a = adag.T
    f_h = np.diag([evaluate(rep.fn, ev) for ev in rep.eigenvalues])
    interior = slice(0, rep.dim - 1)
    r_raise = h @ adag - adag @ f_h
    r_lower = a @ h - f_h @ a
    r_comm = (a @ adag - adag @ a) - (f_h - h)
    r_casimir = (adag @ a - h) - (a @ adag - f_h)
    residuals = {
        "h_adag_intertwine": float(np.max(np.abs(r_raise[:, interior]))),
        "a_h_intertwine": float(np.max(np.abs(r_lower[:, interior]))),
        "commutator": float(np.max(np.abs(r_comm[:, interior]))),
        "casimir_forms": float(np.max(np.abs(r_casimir[:, interior]))),
    }
    return ResidualReport(residuals, tol)


def gha_to_dict(rep: GhaRep) -> dict:
    return {
        "fn": charfn_to_dict(rep.fn),
        "alpha0": rep.alpha0,
        "dim": rep.dim,
        "eigenvalues": list(rep.eigenvalues),
        "ladder": list(rep.ladder),
    }


def gha_from_dict(data: dict) -> GhaRep:
    rep = GhaRep(
        charfn_from_dict(data["fn"]),
        float(data["alpha0"]),
        int(data["dim"]),
        tuple(float(v) for v in data["eigenvalues"]),
        tuple(float(v) for v in data["ladder"]),
    )
    if len(rep.eigenvalues) != rep.dim or len(rep.ladder) != max(rep.dim - 1, 0):
        raise ValueError("eigenvalue/ladder lengths inconsistent with dim")
    return rep

"""Two-oscillator realization of the generalized sl(2) algebra.

Two independent copies of the same generalized oscillator, with occupation
numbers ``n1`` and ``n2``, carry a weight-algebra representation through

    S_z = G(N1, N2),    S_+ = F(N1, N2) A1+ A2,    S_- = A2+ A1 F(N1, N2),

where ``F`` and ``G`` are diagonal in the occupation basis and are built from
the Gauss numbers of the oscillator function ``f`` (at ``alpha0``) and of the
weight function ``g`` (at ``alpha_j``).  On a fixed shell ``n1 + n2 = 2j``
these matrices act exactly like the directly-constructed highest-weight
representation: that equality is what :func:`verify_map_equals_gsl2` checks
entry by entry.

The linear pair ``f = x + 1``, ``g = x - 1`` with ``alpha0 = 0`` and
``alpha_j = j`` collapses ``F`` to 1 and ``G`` to ``(N1 - N2) / 2``, which is
the classic two-boson construction of angular momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    Orientation,
    charfn_to_dict,
    evaluate,
    fixed_points,
    is_reflection_pair,
    reflection_pair,
)
from .errors import (
    DescentViolation,
    DimensionMismatch,
    GjsError,
    NegativeRadicand,
    NoRealFixedPoint,
    OutOfBasis,
    PairingMismatch,
)
from .gha import (
    GhaRep,
    OperatorMatrix,
    ResidualReport,
    build_gha,
    gauss_factorial,
    gauss_numbers,
    gha_to_dict,
    matrix_Adag,
)
from .gsl2 import (
    Gsl2Rep,
    _weight_casimir,
    _weight_residuals,
    casimir_gsl2,
    matrix_J0,
    matrix_Jplus,
)

#: Radicands in [-RADICAND_CLAMP_TOL, 0) are clamped to zero.
RADICAND_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class FixedJ:
    """The ``2j + 1`` states with ``n1 + n2 = 2j``; ``two_j`` stores ``2j``."""

    two_j: int


@dataclass(frozen=True)
class FullGrid:
    """All pairs with ``n1, n2 < dim``, ordered ``n1``-major."""

    dim: int


Mode = Union[FixedJ, FullGrid]


@dataclass(frozen=True)
class TwoOscillatorSpace:
    """Ordered occupation basis shared by both oscillators.

    Both oscillators use the same characteristic function and the same vacuum
    eigenvalue, so one ladder (``gha``) serves the two factors.  On a fixed-j
    shell, basis entry ``m`` is ``(n1, n2) = (2j - m, m)``: the shell index
    ``m`` equals ``n2``, matching the weight states highest-first.
    """

    gha: GhaRep
    basis: tuple[tuple[int, int], ...]
    mode: Mode

    @property
    def size(self) -> int:
        return len(self.basis)

    def index_of(self, n1: int, n2: int) -> int:
        try:
            return self.basis.index((n1, n2))
        except ValueError as exc:
            raise OutOfBasis(f"({n1}, {n2}) is not in the basis") from exc


def two_oscillator_space(
    fn: CharFn, alpha0: float, mode: Mode, bound: float = DIVERGENCE_BOUND
) -> TwoOscillatorSpace:
    """Build the occupation basis and the oscillator ladder behind it."""
    if isinstance(mode, FixedJ):
        if mode.two_j < 0:
            raise ValueError("two_j must be non-negative")
        rep = build_gha(fn, alpha0, mode.two_j + 1, bound=bound)
        basis = tuple((mode.two_j - m, m) for m in range(mode.two_j + 1))
    elif isinstance(mode, FullGrid):
        if mode.dim < 1:
            raise ValueError("grid dimension must be >= 1")
        rep = build_gha(fn, alpha0, mode.dim, bound=bound)
        basis = tuple(
            (n1, n2) for n1 in range(mode.dim) for n2 in range(mode.dim)
        )
    else:
        raise TypeError(f"unsupported mode {mode!r}")
    return TwoOscillatorSpace(rep, basis, mode)


def _space_label(space: TwoOscillatorSpace, extra: str) -> str:
    if isinstance(space.mode, FixedJ):
        shell = f"fixed shell n1+n2 = {space.mode.two_j}"
    else:
        shell = f"full grid n1,n2 < {space.mode.dim}"
    return f"two-oscillator basis ({shell}), {extra}"


def _state_labels(space: TwoOscillatorSpace) -> tuple[str, ...]:
    return tuple(f"({n1},{n2})" for n1, n2 in space.basis)


def functional_G(
    space: TwoOscillatorSpace, gn: CharFn, alpha_j: float
) -> OperatorMatrix:
    """Diagonal of ``S_z``: entry ``alpha_j + Q2 [n2]_g`` at state ``(n1, n2)``.

    ``Q2 = g(alpha_j) - alpha_j``; the Gauss-number index reduces to ``n2``
    on every shell because the shell spin enters as ``(n1 + n2) / 2``.
    """
    q2 = evaluate(gn, alpha_j) - alpha_j
    max_n2 = max(n2 for _, n2 in space.basis)
    if max_n2 == 0:
        gg = [0.0]
    else:
        gg = gauss_numbers(gn, alpha_j, max_n2, bound=math.inf)
    diag = [alpha_j + q2 * gg[n2] for _, n2 in space.basis]
    return OperatorMatrix(
        np.diag(diag),
        _space_label(space, f"alpha_j = {alpha_j!r}"),
        _state_labels(space),
    )


def functional_F(
    space: TwoOscillatorSpace,
    fn: CharFn,
    alpha0: float,
    gn: CharFn,
    alpha_j: float,
) -> OperatorMatrix:
    """Diagonal dressing of the hopping term ``A1+ A2``.

    Entry at ``(n1, n2)``:

        sqrt(-Q2 [n2+1]_g (2 alpha_j + 1 + Q2 [n2+1]_g))
        ------------------------------------------------
                M0^2 sqrt([n2+1]_f [n1]_f)

    States whose entry only ever multiplies a vanishing ladder product
    (``n1 = 0``, the top ``n2`` row of a grid, or any zero Gauss number in
    the denominator) get the value 0: any finite choice there is
    unobservable, and 0 avoids spurious division errors.

    Raises
    ------
    NegativeRadicand
        If the radicand drops below ``-RADICAND_CLAMP_TOL`` at a state whose
        entry is observable; the ``(gn, alpha_j)`` pair does not admit a real
        representation on this basis.
    """
    if fn.coefficients != space.gha.fn.coefficients or alpha0 != space.gha.alpha0:
        raise ValueError("fn and alpha0 must match the oscillator behind the space")
    q2 = evaluate(gn, alpha_j) - alpha_j
    max_n1 = max(n1 for n1, _ in space.basis)
    max_n2 = max(n2 for _, n2 in space.basis)
    fg = gauss_numbers(fn, alpha0, max(max_n1, max_n2 + 1), bound=math.inf)
    gg = gauss_numbers(gn, alpha_j, max_n2 + 1, bound=math.inf)
    m0_sq = evaluate(fn, alpha0) - alpha0
    diag = []
    for n1, n2 in space.basis:
        q = q2 * gg[n2 + 1]
        radicand = -q * (2.0 * alpha_j + 1.0 + q)
        observable = n1 >= 1 and n2 <= max_n2 - 1
        if radicand < -RADICAND_CLAMP_TOL:
            if observable:
                raise NegativeRadicand((n1, n2), radicand)
            diag.append(0.0)
            continue
        den_sq = fg[n2 + 1] * fg[n1]
        if not (den_sq > 0.0 and math.isfinite(den_sq)):
            diag.append(0.0)
            continue
        diag.append(math.sqrt(max(radicand, 0.0)) / (m0_sq * math.sqrt(den_sq)))
    return OperatorMatrix(
        np.diag(diag),
        _space_label(space, f"alpha_j = {alpha_j!r}"),
        _state_labels(space),
    )


@dataclass(frozen=True)
class JsMapRep:
    """The mapped generators on a two-oscillator basis.

    ``q2 = g(alpha_j) - alpha_j`` must be negative for the raising/lowering
    square roots to be real wherever the ladder squares are positive; this is
    the first step of the descent hypothesis and is validated at build time.
    """

    space: TwoOscillatorSpace
    gn: CharFn
    alpha_j: float
    q2: float
    m0_sq: float
    s_z: OperatorMatrix
    s_plus: OperatorMatrix
    s_minus: OperatorMatrix
    s_sq: OperatorMatrix

    @property
    def dim(self) -> int:
        return self.space.size


def _hop_matrices(space: TwoOscillatorSpace) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of ``A1+ A2`` and ``A2+ A1`` on the basis."""
    lad = space.gha.ladder
    if isinstance(space.mode, FixedJ):
        two_j = space.mode.two_j
        size = two_j + 1
        raise_op = np.zeros((size, size))
        for m in range(1, size):
            # source (2j - m, m) -> image (2j - m + 1, m - 1)
            raise_op[m - 1, m] = lad[two_j - m] * lad[m - 1]
        return raise_op, raise_op.T.copy()
    adag = matrix_Adag(space.gha).entries
    raise_op = np.kron(adag, adag.T)
    return raise_op, raise_op.T.copy()


def build_jsmap(
    fn: CharFn,
    alpha0: float,
    gn: CharFn,
    alpha_j: float,
    mode: Mode,
    bound: float = DIVERGENCE_BOUND,
) -> JsMapRep:
    """Assemble ``S_z``, ``S_+``, ``S_-`` and the invariant ``S^2``.

    ``S_+`` is the diagonal ``F`` applied after the hop ``A1+ A2``; ``S_-``
    puts ``F`` on the other side of the reverse hop, which lands exactly on
    the transpose of ``S_+`` (checked).  ``S^2`` is the weight-algebra
    invariant of :mod:`gsl2` evaluated on the mapped generators.

    Raises
    ------
    GjsError
        If the reverse hop does not reproduce the transpose of ``S_+``.
    """
    if gn.orientation is not Orientation.WEIGHT:
        raise ValueError("the mapped algebra needs a weight-like function")
    space = two_oscillator_space(fn, alpha0, mode, bound=bound)
    q2 = evaluate(gn, alpha_j) - alpha_j
    if not (q2 < 0.0):
        raise DescentViolation(1, evaluate(gn, alpha_j))
    g_mat = functional_G(space, gn, alpha_j)
    f_mat = functional_F(space, fn, alpha0, gn, alpha_j)
    f_diag = np.diag(f_mat.entries)
    raise_hop, lower_hop = _hop_matrices(space)
    s_plus = f_diag[:, None] * raise_hop
    s_minus = lower_hop * f_diag[None, :]
    if not np.array_equal(s_minus, s_plus.T):
        raise GjsError("S_- must be the transpose of S_+")
    s_z = g_mat.entries
    s_sq = _weight_casimir(s_z, s_plus, s_minus, gn)
    label = _space_label(space, f"alpha_j = {alpha_j!r}")
    states = _state_labels(space)
    m0_sq = evaluate(fn, alpha0) - alpha0
    return JsMapRep(
        space,
        gn,
        float(alpha_j),
        float(q2),
        float(m0_sq),
        OperatorMatrix(s_z, label, states),
        OperatorMatrix(s_plus, label, states),
        OperatorMatrix(s_minus, label, states),
        OperatorMatrix(s_sq, label, states),
    )


def verify_map_equals_gsl2(
    jsrep: JsMapRep, gsl2rep: Gsl2Rep, tol: float = 1e-10
) -> ResidualReport:
    """Entrywise agreement of the mapped generators with the direct ones.

    Compares ``(S_z, S_+, S_-, S^2)`` with ``(J_0, J_+, J_-, C)`` built from
    the same weight function and highest weight on a shell of matching size.
    """
    if not isinstance(jsrep.space.mode, FixedJ):
        raise DimensionMismatch("comparison needs a fixed-j shell")
    if jsrep.space.mode.two_j + 1 != gsl2rep.dim:
        raise DimensionMismatch(
            f"shell has {jsrep.space.mode.two_j + 1} states, "
            f"representation has {gsl2rep.dim}"
        )
    if (
        jsrep.gn.coefficients != gsl2rep.gn.coefficients
        or jsrep.gn.orientation is not gsl2rep.gn.orientation
        or jsrep.alpha_j != gsl2rep.alpha_j
    ):
        raise ValueError("the two sides use different gn or alpha_j")
    jp = matrix_Jplus(gsl2rep).entries
    residuals = {
        "s_z_vs_j0": float(
            np.max(np.abs(jsrep.s_z.entries - matrix_J0(gsl2rep).entries))
        ),
        "s_plus_vs_jplus": float(np.max(np.abs(jsrep.s_plus.entries - jp))),
        "s_minus_vs_jminus": float(np.max(np.abs(jsrep.s_minus.entries - jp.T))),
        "s_sq_vs_casimir": float(
            np.max(np.abs(jsrep.s_sq.entries - casimir_gsl2(gsl2rep).entries))
        ),
    }
    return ResidualReport(residuals, tol)


def verify_jsmap_relations(jsrep: JsMapRep, tol: float = 1e-10) -> ResidualReport:
    """Weight-algebra relation residuals computed from the mapped matrices.

    If the shell closes (the ladder square past the last state vanishes) all
    columns are checked; otherwise the last column is excluded, exactly as for
    a truncated direct representation.
    """
    if not isinstance(jsrep.space.mode, FixedJ):
        raise ValueError("relation residuals are defined on a fixed-j shell")
    size = jsrep.dim
    if size < 2:
        raise ValueError("relation residuals need at least 2 states")
    two_j = jsrep.space.mode.two_j
    gg = gauss_numbers(jsrep.gn, jsrep.alpha_j, two_j + 1, bound=math.inf)
    q = jsrep.q2 * gg[two_j + 1]
    bottom_sq = -q * (2.0 * jsrep.alpha_j + 1.0 + q)
    closed = abs(bottom_sq) <= 1e-9 * max(1.0, abs(jsrep.alpha_j) + 1.0)
    residuals = _weight_residuals(
        jsrep.s_z.entries,
        jsrep.s_plus.entries,
        jsrep.s_minus.entries,
        jsrep.gn,
        size if closed else size - 1,
    )
    names = ("sz_sminus_intertwine", "splus_sz_intertwine", "commutator")
    return ResidualReport(dict(zip(names, residuals)), tol)


@dataclass(frozen=True)
class PairingReport:
    """Check of ``-Q2 [m]_g = M0^2 [m]_f`` for a reflection-paired f, g.

    ``residuals[m]`` is relative to ``max(1, |M0^2 [m]_f|)``.  When both
    functions are tangent quadratics the fixed points must mirror each other
    (``alpha_bar_star = -alpha_star``); the mirror defect is included in the
    pass verdict.
    """

    residuals: tuple[float, ...]
    max_residual: float
    fixed_point_f: float | None
    fixed_point_g: float | None
    reflection_residual: float | None
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "residuals": list(self.residuals),
            "max_residual": self.max_residual,
            "fixed_point_f": self.fixed_point_f,
            "fixed_point_g": self.fixed_point_g,
            "reflection_residual": self.reflection_residual,
            "tol": self.tol,
            "passed": self.passed,
        }


def verify_pairing_identity(
    fn: CharFn,
    alpha0: float,
    gn: CharFn,
    alpha_j: float,
    m_max: int,
    tol: float = 1e-10,
    bound: float = math.inf,
) -> PairingReport:
    """Verify the Gauss-number identity of a reflection-paired ``(fn, gn)``.

    Raises
    ------
    PairingMismatch
        If ``gn`` is not the exact reflection partner of ``fn`` (even-index
        coefficients negated, constant included, odd-index kept) or
        ``alpha_j != -alpha0``.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    if not is_reflection_pair(fn, gn):
        raise PairingMismatch(
            "gn is not the reflection partner of fn (flip even-index coefficients)"
        )
    if alpha_j != -alpha0:
        raise PairingMismatch(f"alpha_j = {alpha_j!r} is not -alpha0 = {-alpha0!r}")
    fg = gauss_numbers(fn, alpha0, m_max, bound=bound)
    gg = gauss_numbers(gn, alpha_j, m_max, bound=bound)
    m0_sq = evaluate(fn, alpha0) - alpha0
    q2 = evaluate(gn, alpha_j) - alpha_j
    residuals = []
    for m in range(m_max + 1):
        rhs = m0_sq * fg[m]
        lhs = -q2 * gg[m]
        residuals.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    max_residual = max(residuals)
    passed = max_residual <= tol
    fp_f = fp_g = reflection_residual = None
    if fn.degree == 2 and gn.degree == 2:
        try:
            pts_f = fixed_points(fn)
            pts_g = fixed_points(gn)
        except NoRealFixedPoint:
            pts_f = pts_g = []
        if len(pts_f) == 1 and len(pts_g) == 1:
            fp_f = pts_f[0].location
            fp_g = pts_g[0].location
            reflection_residual = abs(fp_g + fp_f)
            passed = passed and reflection_residual <= tol * max(1.0, abs(fp_f))
    return PairingReport(
        tuple(residuals),
        max_residual,
        fp_f,
        fp_g,
        reflection_residual,
        tol,
        passed,
    )


def derive_pairing(fn: CharFn, alpha0: float) -> tuple[CharFn, float]:
    """The reflection partner and mirrored weight for a given oscillator side."""
    return reflection_pair(fn), -alpha0


def build_state_vector(space: TwoOscillatorSpace, n1: int, n2: int) -> np.ndarray:
    """Normalized basis vector built by raising the two-mode vacuum.

    Applies the raising operators ``n2`` times on the second mode and ``n1``
    times on the first, then divides by ``M0**(n1+n2) sqrt([n1]_f! [n2]_f!)``.
    Only available on a full grid, which contains the vacuum.
    """
    if not isinstance(space.mode, FullGrid):
        raise OutOfBasis("state vectors need a full-grid basis")
    if not (0 <= n1 < space.mode.dim and 0 <= n2 < space.mode.dim):
        raise OutOfBasis(f"({n1}, {n2}) is not in the basis")
    dim = space.mode.dim
    adag = matrix_Adag(space.gha).entries
    eye = np.eye(dim)
    raise_1 = np.kron(adag, eye)
    raise_2 = np.kron(eye, adag)
    vec = np.zeros(dim * dim)
    vec[0] = 1.0
    for _ in range(n2):
        vec = raise_2 @ vec
    for _ in range(n1):
        vec = raise_1 @ vec
    m0 = space.gha.ladder[0] if space.gha.dim > 1 else 0.0
    fn, alpha0 = space.gha.fn, space.gha.alpha0
    norm = (m0 ** (n1 + n2)) * math.sqrt(
        gauss_factorial(fn, alpha0, n1) * gauss_factorial(fn, alpha0, n2)
    )
    return vec / norm


def jsmap_to_dict(rep: JsMapRep) -> dict:
    mode = rep.space.mode
    mode_dict = (
        {"kind": "fixed_j", "two_j": mode.two_j}
        if isinstance(mode, FixedJ)
        else {"kind": "full_grid", "dim": mode.dim}
    )
    return {
        "mode": mode_dict,
        "basis": [list(state) for state in rep.space.basis],
        "oscillator": gha_to_dict(rep.space.gha),
        "gn": charfn_to_dict(rep.gn),
        "alpha_j": rep.alpha_j,
        "q2": rep.q2,
        "m0_sq": rep.m0_sq,
        "matrices": {
            "s_z": rep.s_z.entries.tolist(),
            "s_plus": rep.s_plus.entries.tolist(),
            "s_minus": rep.s_minus.entries.tolist(),
            "s_sq": rep.s_sq.entries.tolist(),
        },
    }

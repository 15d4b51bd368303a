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

from ._np import np
from .charfun import (
    DIVERGENCE_BOUND,
    CharFn,
    Orientation,
    charfn_to_dict,
    fixed_points,
    iterate,
    reflection_pair,
)
from .encoding import _record_data
from .errors import DimensionMismatch, GjsError, InvalidHighestWeight, NoRealFixedPoint, OutOfBasis
from .gha import (
    GhaRep,
    OperatorMatrix,
    ResidualReport,
    _gauss,
    build_gha,
    gha_to_dict,
)
from .gsl2 import (
    Gsl2Rep,
    _weight_casimir,
    _weight_ladder,
    _weight_residuals,
    matrix_J0,
    matrix_Jplus,
)


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
    eigenvalue, so one ladder (``gha``) serves the two factors.  State ``i`` is
    ``(n1[i], n2[i])``, from two read-only integer arrays: ``i = n2`` on a
    fixed-j shell (the weight states highest-first), ``n1 * dim + n2`` on a grid.
    """

    gha: GhaRep
    n1: np.ndarray
    n2: np.ndarray
    mode: Mode

    @property
    def size(self) -> int:
        return len(self.n2)

    @property
    def basis(self) -> tuple[tuple[int, int], ...]:
        """The states as ``(n1, n2)`` pairs."""
        return tuple(zip(self.n1.tolist(), self.n2.tolist()))

    def index_of(self, n1: int, n2: int) -> int:
        """Position of ``(n1, n2)``: ``n2`` on a shell, ``n1 * dim + n2`` on a grid."""
        index = n2 if isinstance(self.mode, FixedJ) else n1 * self.gha.dim + n2
        if not (0 <= index < self.size) or (self.n1[int(index)], self.n2[int(index)]) != (n1, n2):
            raise OutOfBasis(f"({n1}, {n2}) is not in the basis")
        return int(index)


def two_oscillator_space(
    fn: CharFn, alpha0: float, mode: Mode, bound: float = DIVERGENCE_BOUND
) -> TwoOscillatorSpace:
    """Build the occupation basis and the oscillator ladder behind it."""
    if isinstance(mode, FixedJ):
        if mode.two_j < 0:
            raise ValueError("two_j must be non-negative")
        rep = build_gha(fn, alpha0, mode.two_j + 1, bound=bound)
        n2 = np.arange(mode.two_j + 1)
        n1 = mode.two_j - n2
    elif isinstance(mode, FullGrid):
        if mode.dim < 1:
            raise ValueError("grid dimension must be >= 1")
        rep = build_gha(fn, alpha0, mode.dim, bound=bound)
        n1, n2 = np.divmod(np.arange(mode.dim * mode.dim), mode.dim)
    else:
        raise TypeError(f"unsupported mode {mode!r}")
    n1.setflags(write=False)
    n2.setflags(write=False)
    return TwoOscillatorSpace(rep, n1, n2, mode)


def _weight_side(space: TwoOscillatorSpace, gn: CharFn, alpha_j: float) -> tuple:
    """``(g orbit, ladder squares, Q2, functional_G)`` of the weight states ``0..max n2``:
    the orbit and squares of their direct truncated build, on the unbounded orbit."""
    orbit, squares = _weight_ladder(gn, alpha_j, int(space.n2.max()) + 1, math.inf, None)
    q2, gg = _gauss(gn, alpha_j, orbit)
    return orbit, squares, q2, alpha_j + q2 * gg[space.n2]


def functional_G(space: TwoOscillatorSpace, gn: CharFn, alpha_j: float) -> np.ndarray:
    """Diagonal of ``S_z``: entry ``alpha_j + Q2 [n2]_g`` at state ``(n1, n2)``.

    ``Q2 = g(alpha_j) - alpha_j``; the Gauss-number index reduces to ``n2``
    on every shell because the shell spin enters as ``(n1 + n2) / 2``.  The
    orbit runs ``max n2 + 1`` steps, one past ``[max n2]_g``, as in :func:`functional_F`.

    Raises
    ------
    InvalidHighestWeight, DescentViolation, NegativeLadderSquare, FixedPointVacuum
        As :func:`functional_F` does.
    """
    return _weight_side(space, gn, alpha_j)[3]


def functional_F(space: TwoOscillatorSpace, gn: CharFn, alpha_j: float) -> np.ndarray:
    """Diagonal of the dressing of the hopping term ``A1+ A2``.

    Entry at ``(n1, n2)``, with ``f`` and ``alpha0`` those of ``space.gha``:

        sqrt(-Q2 [n2+1]_g (2 alpha_j + 1 + Q2 [n2+1]_g))
        ------------------------------------------------
                M0^2 sqrt([n2+1]_f [n1]_f)

    The radicand is the direct representation's ladder square: with
    ``w = g^(n2+1)(alpha_j)`` it is ``(alpha_j - w)(alpha_j + w + 1)``, the same number
    in exact arithmetic without the cancellation in ``2 alpha_j + 1 + Q2 [n2+1]_g``.

    The entry is 0 by convention where the row of ``S_+`` is empty (``n1 = 0``,
    or the largest ``n2``: the last state of a shell, the top ``n2`` row of a
    grid) and where the squared denominator is not finite and positive.  Such
    entries only multiply a vanishing ladder product, so the ``f`` Gauss
    numbers need no more of the orbit than the ladder's own eigenvalues.

    Raises
    ------
    InvalidHighestWeight, DescentViolation, NegativeLadderSquare
        If ``build_gsl2(gn, alpha_j, max n2 + 1, "truncated", bound=math.inf)`` raises it:
        the ``(gn, alpha_j)`` pair does not head a representation on this basis.
    FixedPointVacuum
        If ``alpha_j`` is a fixed point of ``gn``, which a one-state basis admits.
    """
    return _f_diag(space, _weight_side(space, gn, alpha_j)[1])[1]


def _f_diag(space: TwoOscillatorSpace, squares: np.ndarray) -> tuple[float, np.ndarray]:
    """``(M0^2, functional_F)`` from the ladder squares; rows read ``squares[:-1]``."""
    m0_sq, fg = _gauss(space.gha.fn, space.gha.alpha0, space.gha.eigenvalues)
    obs = np.flatnonzero((space.n1 >= 1) & (space.n2 < space.n2.max()))
    n1, n2 = space.n1[obs], space.n2[obs]
    out = np.zeros(space.size)
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(squares[n2])
        den_sq = fg[n2 + 1] * fg[n1]
        keep = (den_sq > 0.0) & np.isfinite(den_sq)
        out[obs[keep]] = root[keep] / (m0_sq * np.sqrt(den_sq[keep]))
    return m0_sq, out


@dataclass(frozen=True)
class JsMapRep:
    """The mapped generators on a two-oscillator basis.

    ``q2 = g(alpha_j) - alpha_j`` is negative on two or more weight states, as the
    descent of their direct build requires; one state needs only ``q2 != 0``.
    ``closes`` says whether the ladder square past the shell's last state
    vanishes, which decides the columns :func:`verify_jsmap_relations` checks.
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
    closes: bool

    @property
    def dim(self) -> int:
        return self.space.size


def _hop(space: TwoOscillatorSpace) -> tuple[int, np.ndarray]:
    """``A1+ A2`` on the basis as its one diagonal: ``(offset, values)``.

    Source ``(n1, n2)`` hops to ``(n1 + 1, n2 - 1)`` with weight
    ``M_{n1} M_{n2-1}`` whenever that image is in the basis; the image sits
    one state before the source on a shell and ``dim - 1`` states after it
    on a grid.
    """
    n1, n2, dim, lad = space.n1, space.n2, space.gha.dim, space.gha.ladder
    hops = (n2 >= 1) & (n1 + 1 < dim)
    weights = np.zeros(space.size)
    weights[hops] = lad[n1[hops]] * lad[n2[hops] - 1]
    offset = 1 if isinstance(space.mode, FixedJ) else 1 - dim
    return offset, weights[max(offset, 0):][: space.size - abs(offset)]


def build_jsmap(fn: CharFn, alpha0: float, gn: CharFn, alpha_j: float, mode: Mode,
                bound: float = DIVERGENCE_BOUND) -> JsMapRep:
    """Assemble ``S_z``, ``S_+``, ``S_-`` and the invariant ``S^2``.

    ``S_+`` is the diagonal ``F`` applied after the hop ``A1+ A2`` and
    ``S_-`` its transpose.  ``S^2`` is the weight-algebra invariant of
    :mod:`gsl2` evaluated on the mapped generators.  One ``g`` orbit serves
    ``G``, ``F`` and ``closes``.  A shell raises what ``build_gsl2(gn, alpha_j, 2j + 1,
    "truncated", bound=math.inf)`` raises; only the map adds :class:`FixedPointVacuum`.
    """
    return _build_jsmap(fn, alpha0, gn, alpha_j, mode, bound)[0]


def _build_jsmap(fn: CharFn, alpha0: float, gn: CharFn, alpha_j: float, mode: Mode,
                 bound: float) -> tuple[JsMapRep, np.ndarray]:
    """:func:`build_jsmap` and its unbounded ``g`` orbit, a read-only array.

    On a shell of ``2j + 1`` states the orbit runs ``2j + 1`` steps, the
    orbit the direct representation of the same size is built from.
    """
    if gn.orientation is not Orientation.WEIGHT:
        raise ValueError("the mapped algebra needs a weight-like function")
    space = two_oscillator_space(fn, alpha0, mode, bound=bound)
    if not math.isfinite(alpha_j):
        raise InvalidHighestWeight(f"alpha_j = {alpha_j!r} is not finite")
    orbit, squares, q2, g = _weight_side(space, gn, alpha_j)
    m0_sq, f = _f_diag(space, squares)
    s_z = OperatorMatrix(g, 0)
    offset, hop = _hop(space)
    s_plus = OperatorMatrix(f[max(-offset, 0):][: len(hop)] * hop, offset)
    s_sq = OperatorMatrix(_weight_casimir(s_z.values, s_plus, gn), 0)
    q2, alpha_j = float(q2), float(alpha_j)
    closes = abs(float(squares[-1])) <= 1e-9 * max(1.0, abs(alpha_j) + 1.0)
    rep = JsMapRep(space, gn, alpha_j, q2, float(m0_sq), s_z, s_plus, s_plus.T, s_sq, closes)
    return rep, orbit


def jsmap_csv_labels(rep: JsMapRep) -> tuple[str, tuple[str, ...]]:
    """``(basis description, state labels)`` of the mapped generators' CSV files."""
    mode = rep.space.mode
    shell = (f"fixed shell n1+n2 = {mode.two_j}" if isinstance(mode, FixedJ)
             else f"full grid n1,n2 < {mode.dim}")
    return (
        f"two-oscillator basis ({shell}), alpha_j = {rep.alpha_j!r}",
        tuple(f"({n1},{n2})" for n1, n2 in rep.space.basis),
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
    if jsrep.gn != gsl2rep.gn or jsrep.alpha_j != gsl2rep.alpha_j:
        raise ValueError("the two sides use different gn or alpha_j")
    j0, jp = matrix_J0(gsl2rep).values, matrix_Jplus(gsl2rep)
    pairs = {
        "s_z_vs_j0": (jsrep.s_z.values, j0),
        "s_plus_vs_jplus": (jsrep.s_plus.values, jp.values),
        "s_minus_vs_jminus": (jsrep.s_minus.values, jp.values),
        "s_sq_vs_casimir": (jsrep.s_sq.values, _weight_casimir(j0, jp, gsl2rep.gn)),
    }
    residuals = {
        name: float(np.abs(mapped - direct).max(initial=0.0))
        for name, (mapped, direct) in pairs.items()
    }
    return ResidualReport(residuals, tol)


def verify_jsmap_relations(jsrep: JsMapRep, tol: float = 1e-10) -> ResidualReport:
    """Weight-algebra relation residuals computed from the mapped matrices.

    If the shell closes (``jsrep.closes``) all columns are checked; otherwise
    the last column is excluded, exactly as for a truncated direct
    representation.
    """
    if not isinstance(jsrep.space.mode, FixedJ):
        raise ValueError("relation residuals are defined on a fixed-j shell")
    size = jsrep.dim
    if size < 2:
        raise ValueError("relation residuals need at least 2 states")
    residuals = _weight_residuals(
        jsrep.s_z.values, jsrep.s_plus, jsrep.s_minus, jsrep.gn, size if jsrep.closes else size - 1
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

    to_dict = _record_data


def verify_pairing_identity(
    fn: CharFn, alpha0: float, m_max: int, tol: float = 1e-10
) -> PairingReport:
    """Verify the Gauss-number identity of ``fn`` and its :func:`derive_pairing` partner."""
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    gn, alpha_j = derive_pairing(fn, alpha0)
    m0_sq, fg = _gauss(fn, alpha0, iterate(fn, alpha0, m_max, bound=math.inf))
    q2, gg = _gauss(gn, alpha_j, iterate(gn, alpha_j, m_max, bound=math.inf))
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = m0_sq * fg
        residuals = tuple((np.abs(-q2 * gg - rhs) / np.maximum(1.0, np.abs(rhs))).tolist())
    max_residual = max(residuals)
    passed = max_residual <= tol
    fp_f = fp_g = reflection_residual = None
    if fn.degree == 2 and gn.degree == 2:
        try:
            pts_f, pts_g = fixed_points(fn), fixed_points(gn)
        except NoRealFixedPoint:
            pts_f = pts_g = []
        if len(pts_f) == 1 and len(pts_g) == 1:
            fp_f, fp_g = pts_f[0].location, pts_g[0].location
            reflection_residual = abs(fp_g + fp_f)
            passed = passed and reflection_residual <= tol * max(1.0, abs(fp_f))
    return PairingReport(residuals, max_residual, fp_f, fp_g, reflection_residual, tol, passed)


def derive_pairing(fn: CharFn, alpha0: float) -> tuple[CharFn, float]:
    """The reflection partner and mirrored weight for a given oscillator side."""
    return reflection_pair(fn), -alpha0


def build_state_vector(space: TwoOscillatorSpace, n1: int, n2: int) -> np.ndarray:
    """Normalized basis vector built by raising the two-mode vacuum.

    Applies the raising operators ``n2`` times on the second mode and ``n1``
    times on the first, then divides by ``M0**(n1+n2) sqrt([n1]_f!) sqrt([n2]_f!)``,
    whose two square roots keep the norm finite wherever the entry is.  The
    Gauss numbers come from the ladder's own eigenvalues, so nothing is iterated.
    Only available on a full grid, which contains the vacuum.

    Raises
    ------
    GjsError
        If the raised amplitude or the norm is not a finite positive float.
    """
    if not isinstance(space.mode, FullGrid):
        raise OutOfBasis("state vectors need a full-grid basis")
    index = space.index_of(n1, n2)
    gha, dim = space.gha, space.mode.dim
    ladder = gha.ladder.tolist()
    m0 = ladder[0] if dim > 1 else 0.0
    gauss = _gauss(gha.fn, gha.alpha0, gha.eigenvalues)[1].tolist()
    amplitude = math.prod(ladder[:n1], start=math.prod(ladder[:n2]))
    try:
        norm = (
            (m0 ** (n1 + n2))
            * math.sqrt(math.prod(gauss[1 : n1 + 1], start=1.0))
            * math.sqrt(math.prod(gauss[1 : n2 + 1], start=1.0))
        )
    except OverflowError:
        norm = math.inf
    if not (math.isfinite(amplitude) and 0.0 < norm < math.inf):
        raise GjsError(f"state ({n1}, {n2}) has amplitude {amplitude!r} and norm {norm!r}")
    vec = np.zeros(dim * dim)
    vec[index] = amplitude / norm
    return vec


def jsmap_to_dict(rep: JsMapRep) -> dict:
    mode = rep.space.mode
    return {
        "mode": {"kind": "fixed_j" if isinstance(mode, FixedJ) else "full_grid",
                 **_record_data(mode)},
        "basis": np.stack([rep.space.n1, rep.space.n2], axis=1).tolist(),
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

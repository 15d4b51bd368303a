"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from gjsmap import (
    CharFn,
    GhaRep,
    Gsl2Rep,
    Orientation,
    RepKind,
    build_gha,
    build_gsl2,
    evaluate,
    gauss_factorial,
    report_to_dict,
)
from gjsmap.charfun import DIVERGENCE_BOUND
from gjsmap.errors import OverflowDiverged
from gjsmap.roots import _dyadic, _horner, _strip_trailing_zeros

#: Ascending coefficients of x + g^(2)(x) + 1 for g = -x^2 + 3x - 1, expanded
#: exactly by hand:  -x^4 + 6x^3 - 14x^2 + 16x - 4 = 0.
CUT_QUARTIC_ASCENDING = (-4.0, 16.0, -14.0, 6.0, -1.0)


def exact_closure(coeffs, d: int, sign: int, shift: int, x: float) -> Fraction:
    """``g^(d)(x) + sign x + shift`` in exact rational arithmetic."""
    y = Fraction(x)
    for _ in range(d):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * y + Fraction(c)
        y = acc
    return y + sign * Fraction(x) + shift


def exact_closure_slope(coeffs, d: int, sign: int, x: float) -> Fraction:
    """The derivative ``g'(x) g'(g(x)) ... + sign`` of :func:`exact_closure`, exactly."""
    y, out = Fraction(x), Fraction(1)
    for _ in range(d):
        acc = Fraction(0)
        for i in range(len(coeffs) - 1, 0, -1):
            acc = acc * y + i * Fraction(coeffs[i])
        out *= acc
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * y + Fraction(c)
        y = acc
    return out + sign


def dyadic_closure_ratio(coeffs, d: int, sign: int, shift: int, x: float,
                         slope=False) -> tuple[int, int]:
    """:func:`exact_closure` (:func:`exact_closure_slope` with ``slope``) as ``(n, e)``, the
    value ``n / 2**e``, from integers over powers of two: a faster oracle."""
    ints, top = _dyadic(_strip_trailing_zeros(coeffs))
    dints = [i * c for i, c in enumerate(ints)][1:] or [0]

    def horner(cs, y, e):  # sum cs[i] (y / 2**e)**i / 2**top as acc / 2**a
        acc, a = cs[-1], top
        for c in cs[-2::-1]:
            acc, a = acc * y + (c << (a + e - top)), a + e
        return acc, a

    num, den = x.as_integer_ratio()
    y, e = num, den.bit_length() - 1  # y / 2**e
    s, f = 1, 0  # the chain-rule product s / 2**f
    for i in range(d):
        if slope:
            t, a = horner(dints, y, e)
            s, f = s * t, f + a
            if i == d - 1:
                break
        y, e = horner(ints, y, e)
    if slope:
        return s + (int(sign) << f), f
    lift = max(0, den.bit_length() - 1 - e)  # a constant g leaves y / 2**e coarser than x
    y, e = y << lift, e + lift
    return y + (int(sign) * num << (e + 1 - den.bit_length())) + (int(shift) << e), e


def dyadic_closure(coeffs, d: int, sign: int, shift: int, x: float, slope=False) -> float:
    """:func:`dyadic_closure_ratio` rounded once to a float, ``±inf`` past the float range."""
    y, e = dyadic_closure_ratio(coeffs, d, sign, shift, x, slope)
    try:
        return y / (1 << e)
    except OverflowError:
        return math.inf if y > 0 else -math.inf


def cut_quartic_roots_oracle() -> list[float]:
    """Real roots of the two-state closure quartic via companion eigenvalues."""
    roots = np.roots([-1.0, 6.0, -14.0, 16.0, -4.0])
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)


def tangent_oscillator(rng: np.random.Generator) -> CharFn:
    """Random upward quadratic whose fixed-point equation has a double root."""
    t = rng.uniform(0.5, 3.0)
    q = rng.uniform(-2.0, 3.0)
    s = (q - 1.0) ** 2 / (4.0 * t)
    return CharFn((s, q, t), Orientation.OSCILLATOR)


def tangent_weight(rng: np.random.Generator) -> CharFn:
    """Random downward quadratic with a tangent fixed point above zero."""
    u = rng.uniform(0.5, 2.0)
    q = rng.uniform(2.0, 4.0)
    s = (q - 1.0) ** 2 / (4.0 * u)
    return CharFn((-s, q, -u), Orientation.WEIGHT)


def random_gha_rep(rng: np.random.Generator, max_dim: int = 12) -> GhaRep:
    """Valid oscillator ladder with the vacuum in the convergent interval."""
    if rng.uniform() < 0.25:
        q = rng.uniform(1.0, 1.3)
        s = rng.uniform(0.1, 1.0)
        fn = CharFn((s, q), Orientation.OSCILLATOR)
        alpha0 = rng.uniform(0.0, 2.0)
    else:
        fn = tangent_oscillator(rng)
        t = fn.coefficients[2]
        boundary = -fn.coefficients[1] / (2.0 * t)
        alpha0 = boundary + rng.uniform(0.1, 0.9) / (2.0 * t)
    dim = int(rng.integers(2, max_dim + 1))
    return build_gha(fn, alpha0, dim)


def random_gsl2_rep(rng: np.random.Generator, max_dim: int = 12) -> Gsl2Rep:
    """Valid truncated weight ladder descending toward a positive fixed point."""
    gn = tangent_weight(rng)
    u = -gn.coefficients[2]
    q = gn.coefficients[1]
    star = (q - 1.0) / (2.0 * u)
    boundary = q / (2.0 * u)
    alpha_j = star + rng.uniform(0.05, 0.95) * (boundary - star)
    dim = int(rng.integers(2, max_dim + 1))
    return build_gsl2(gn, alpha_j, dim, RepKind.TRUNCATED_INFINITE)


#: q for the q-oscillator pair f = q x + 1, g = q x - 1 (Biedenharn, Macfarlane),
#: with extra weight within 1e-5 of q = 1, where q-numbers lose the most.
Q_PARAMETER = st.one_of(st.floats(0.9, 1.1), st.floats(1.0 - 1e-5, 1.0 + 1e-5))


def q_cut_root(q: float, d: int) -> float:
    """Highest weight at which g = q x - 1 closes after d states: ([d]_q - 1) / (1 + q^d).

    ``[d]_q`` is summed term by term; ``(q^d - 1) / (q - 1)`` loses about
    ``eps / |q - 1|`` near q = 1.
    """
    return (math.fsum(q**k for k in range(d)) - 1.0) / (1.0 + q**d)


def scaled_tol(casimir: float) -> float:
    """Residual tolerance that grows with the representation: 1024 eps max(1, |C|)."""
    return 1024.0 * np.finfo(float).eps * max(1.0, abs(casimir))


def textbook_jplus(two_j: int) -> np.ndarray:
    """Angular-momentum raising matrix, highest weight first.

    Basis index m holds the eigenvalue j - m; the raising entry at
    (m - 1, m) is sqrt(j(j+1) - m'(m'+1)) with m' = j - m.
    """
    j = two_j / 2.0
    size = two_j + 1
    jp = np.zeros((size, size))
    for m in range(1, size):
        m_prime = j - m
        jp[m - 1, m] = math.sqrt(j * (j + 1.0) - m_prime * (m_prime + 1.0))
    return jp


def textbook_j0(two_j: int) -> np.ndarray:
    j = two_j / 2.0
    return np.diag([j - m for m in range(two_j + 1)])


def gauss_number_fraction(coeffs_frac, alpha0: Fraction, m: int) -> Fraction:
    """Exact-rational Gauss number used as an independent oracle."""

    def poly(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs_frac):
            acc = acc * x + c
        return acc

    xs = [alpha0]
    for _ in range(m):
        xs.append(poly(xs[-1]))
    denom = poly(alpha0) - alpha0
    return (xs[m] - alpha0) / denom


def reference_iterate(fn: CharFn, x0: float, m: int, bound: float = DIVERGENCE_BOUND) -> list[float]:
    """The orbit as ``charfun.iterate`` built it before its step was inlined.

    One :func:`evaluate` call per step, each iterate checked with
    ``math.isfinite``; the same message and partial orbit on divergence.
    """
    if m < 0:
        raise ValueError("iteration count must be non-negative")
    xs = [float(x0)]
    if not (abs(xs[0]) <= bound and math.isfinite(xs[0])):
        raise OverflowDiverged(
            f"start value {xs[0]!r} already exceeds the bound {bound!r}", xs
        )
    for step in range(m):
        xs.append(evaluate(fn, xs[-1]))
        if not (abs(xs[-1]) <= bound and math.isfinite(xs[-1])):
            raise OverflowDiverged(
                f"iterate {step + 1} = {xs[-1]!r} exceeds the bound {bound!r}", xs
            )
    return xs


# Dense references: every operator as a full matrix and every identity as a
# matrix product, as the package computed them before it stored one diagonal
# per operator.  Each product has at most one nonzero term per entry, so the
# diagonal forms must match these bit for bit.


def identical(got: np.ndarray, want: np.ndarray) -> bool:
    """Same shape and same bytes: equal values, sign of zero included."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _dense_c(fn: CharFn, d: np.ndarray) -> np.ndarray:
    return np.diag([evaluate(fn, v) for v in np.diag(d).tolist()])


def dense_relation_residuals(d, l_op, r_op, c_d, comm_rhs, ncols: int, *extra) -> tuple:
    """Max-abs of ``D R - R c(D)``, ``L D - c(D) L`` and ``[L, R] - rhs`` on columns < ncols."""
    r_right = d @ r_op - r_op @ c_d
    r_left = l_op @ d - c_d @ l_op
    r_comm = (l_op @ r_op - r_op @ l_op) - comm_rhs
    return tuple(float(np.abs(r[:, :ncols]).max()) for r in (r_right, r_left, r_comm, *extra))


def dense_gha(rep: GhaRep) -> tuple:
    """``(H, Adag, Adag A - H, relation residuals)``; residuals need dim >= 2."""
    h = np.diag(rep.eigenvalues)
    adag = np.diag(rep.ladder, -1)
    casimir = adag @ adag.T - h
    if rep.dim < 2:
        return h, adag, casimir, None
    f_h = _dense_c(rep.fn, h)
    r_casimir = casimir - (adag.T @ adag - f_h)
    residuals = dense_relation_residuals(h, adag.T, adag, f_h, f_h - h, rep.dim - 1, r_casimir)
    return h, adag, casimir, residuals


def dense_weight_casimir(j0, jp, jm, gn: CharFn) -> np.ndarray:
    gj0 = _dense_c(gn, j0)
    eye = np.eye(len(j0))
    return 0.5 * (jp @ jm + jm @ jp + j0 @ (j0 + eye) + gj0 @ (gj0 + eye))


def dense_weight_residuals(j0, jp, jm, gn: CharFn, ncols: int) -> tuple:
    gj0 = _dense_c(gn, j0)
    eye = np.eye(len(j0))
    rhs = j0 @ (j0 + eye) - gj0 @ (gj0 + eye)
    return dense_relation_residuals(j0, jp, jm, gj0, rhs, ncols)


def dense_gsl2(rep: Gsl2Rep) -> tuple:
    """``(J0, J+, Casimir, relation residuals)``; residuals need dim >= 2."""
    j0 = np.diag(rep.weights)
    jp = np.diag(np.sqrt(np.asarray(rep.ladder_sq, dtype=float)), 1)
    casimir = dense_weight_casimir(j0, jp, jp.T, rep.gn)
    if rep.dim < 2:
        return j0, jp, casimir, None
    ncols = rep.dim if rep.kind is not RepKind.TRUNCATED_INFINITE else rep.dim - 1
    return j0, jp, casimir, dense_weight_residuals(j0, jp, jp.T, rep.gn, ncols)


def dense_hop(space) -> np.ndarray:
    """``A1+ A2`` on the basis: ``(n1, n2)`` to ``(n1 + 1, n2 - 1)``, weight ``M_n1 M_(n2-1)``."""
    lad = space.gha.ladder
    index = {state: i for i, state in enumerate(space.basis)}
    hop = np.zeros((space.size, space.size))
    for col, (n1, n2) in enumerate(space.basis):
        row = index.get((n1 + 1, n2 - 1))
        if row is not None:
            hop[row, col] = lad[n1] * lad[n2 - 1]
    return hop


def reference_functionals(space, gn: CharFn, alpha_j: float) -> tuple[np.ndarray, np.ndarray]:
    """``(G, F)`` state by state, from :func:`reference_iterate` orbits.

    The paper's formulas with ``Q2 = g(alpha_j) - alpha_j``,
    ``M0^2 = f(alpha0) - alpha0`` and ``[m] = (x_m - x_0) / denominator``,
    in the package's operation order: ``G = alpha_j + Q2 [n2]_g`` and
    ``F = sqrt((alpha_j - w)(alpha_j + w + 1)) / (M0^2 sqrt([n2+1]_f [n1]_f))``
    with ``w = g^(n2+1)(alpha_j)`` and ``alpha_j + w + 1`` from a TwoSum, which
    is ``-Q2 [n2+1]_g (2 alpha_j + 1 + Q2 [n2+1]_g)`` in exact arithmetic.  ``F``
    is 0 where the row of ``S_+`` is empty and where the squared denominator is
    not finite and positive; any negative radicand raises.
    """
    fn, alpha0 = space.gha.fn, space.gha.alpha0
    top = int(max(space.n2))
    g_orbit = reference_iterate(gn, alpha_j, top + 1, bound=math.inf)
    f_orbit = reference_iterate(fn, alpha0, space.gha.dim - 1)
    q2 = evaluate(gn, alpha_j) - alpha_j
    m0_sq = evaluate(fn, alpha0) - alpha0

    def gauss(orbit, denom, m):
        return (orbit[m] - orbit[0]) / denom if m else 0.0

    g_diag, f_diag = [], []
    for n1, n2 in space.basis:
        g_diag.append(alpha_j + q2 * gauss(g_orbit, q2, n2))
        entry = 0.0
        if n1 >= 1 and n2 < top:
            w = g_orbit[n2 + 1]
            s = alpha_j + w
            t = s - alpha_j
            radicand = (alpha_j - w) * ((s + 1.0) + ((alpha_j - (s - t)) + (w - t)))
            if radicand < 0.0:
                raise ValueError(f"radicand at state {(n1, n2)} is {radicand!r} < 0")
            den_sq = gauss(f_orbit, m0_sq, n2 + 1) * gauss(f_orbit, m0_sq, n1)
            if 0.0 < den_sq < math.inf:
                entry = math.sqrt(radicand) / (m0_sq * math.sqrt(den_sq))
        f_diag.append(entry)
    return np.array(g_diag), np.array(f_diag)


def dense_jsmap(space, gn: CharFn, alpha_j: float) -> tuple:
    """``(S_z, S_+, S_-, S^2)``; ``F`` scales the hop's rows and its transpose's columns."""
    g, f = reference_functionals(space, gn, alpha_j)
    s_z = np.diag(g)
    hop = dense_hop(space)
    s_plus = f[:, None] * hop
    s_minus = hop.T * f[None, :]
    return s_z, s_plus, s_minus, dense_weight_casimir(s_z, s_plus, s_minus, gn)


def dense_map_residuals(mapped: tuple, direct: tuple) -> tuple:
    """Max-abs entrywise differences of ``(S_z, S_+, S_-, S^2)`` and ``(J0, J+, J-, C)``."""
    j0, jp, casimir, _ = direct
    return tuple(
        float(np.max(np.abs(m - d))) for m, d in zip(mapped, (j0, jp, jp.T, casimir))
    )


def kron_state_vector(space, n1: int, n2: int) -> np.ndarray:
    """The vacuum raised ``n2`` times by ``1 x Adag``, then ``n1`` times by ``Adag x 1``."""
    dim = space.mode.dim
    adag = np.diag(space.gha.ladder, -1)
    eye = np.eye(dim)
    raise_1 = np.kron(adag, eye)
    raise_2 = np.kron(eye, adag)
    vec = np.zeros(dim * dim)
    vec[0] = 1.0
    for _ in range(n2):
        vec = raise_2 @ vec
    for _ in range(n1):
        vec = raise_1 @ vec
    m0 = space.gha.ladder[0] if dim > 1 else 0.0
    fn, alpha0 = space.gha.fn, space.gha.alpha0
    norm = (
        (m0 ** (n1 + n2))
        * math.sqrt(gauss_factorial(fn, alpha0, n1))
        * math.sqrt(gauss_factorial(fn, alpha0, n2))
    )
    return vec / norm


# Orbit reports as cobweb built them and the writers wrote them before a report
# stored flat samples and each number was formatted once per file: the segment
# loop, one float() per sample, a JSON printer independent of the package's
# encoder and csv.writer rows.


def reference_cobweb_parts(fn: CharFn, orbit: list[float], window: tuple[float, float],
                           samples: int) -> tuple:
    """``(fn_samples, diagonal_samples, cobweb_segments, truncated_window)`` of one orbit."""
    lo, hi = window
    segments = []
    truncated_window = False
    prev_y = orbit[0]
    for k in range(len(orbit) - 1):
        x, y = orbit[k], orbit[k + 1]
        if not (lo <= x <= hi):
            truncated_window = True
            break
        segments.append(((x, prev_y), (x, y)))
        segments.append(((x, y), (y, y)))
        prev_y = y
        if not (lo <= y <= hi):
            truncated_window = True
            break
    xs = np.linspace(lo, hi, samples)
    ys = _horner(fn.coefficients, xs)
    fn_samples = tuple((float(x), float(y)) for x, y in zip(xs, ys))
    diagonal = tuple((float(x), float(x)) for x in xs)
    return fn_samples, diagonal, tuple(segments), truncated_window


def reference_report_json(report) -> str:
    return reference_json(report_to_dict(report)) + "\n"


def reference_json(value, level: int = 0) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, except that a list of numbers is one
    line, ``[1.0, 2]``: the layout of ``gjsmap.encoding``, printed without its walk."""
    if isinstance(value, (list, tuple)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return "[" + ", ".join(json.dumps(v, allow_nan=False) for v in value) + "]"
    if isinstance(value, (list, tuple)):
        items, brackets = [reference_json(v, level + 1) for v in value], "[]"
    elif isinstance(value, dict) and value:
        items = [json.dumps(k) + ": " + reference_json(v, level + 1) for k, v in value.items()]
        brackets = "{}"
    else:
        return json.dumps(value, allow_nan=False)
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def reference_report_csvs(report) -> tuple[str, str]:
    """Text of the curve CSV and of the cobweb CSV."""
    curve, cobweb = io.StringIO(), io.StringIO()
    writer = csv.writer(curve, lineterminator="\n")
    writer.writerow(["x", "fn"])
    for x, y in report.fn_samples:
        writer.writerow([repr(x), repr(y)])
    writer = csv.writer(cobweb, lineterminator="\n")
    writer.writerow(["x1", "y1", "x2", "y2"])
    for (x1, y1), (x2, y2) in report.cobweb_segments:
        writer.writerow([repr(x1), repr(y1), repr(x2), repr(y2)])
    return curve.getvalue(), cobweb.getvalue()

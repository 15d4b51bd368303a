"""Independent oracles for the benchmark's output checks.

Nothing here imports ``gjsmap``: every expected value comes from a closed
form or from exact arithmetic, so a check compares the program against
something it did not compute itself.

* q-oscillator closed forms (Biedenharn; Macfarlane, J. Phys. A 22 (1989)
  L873 and 4581).  For ``f = q x + 1`` and ``g = q x - 1`` the Gauss numbers
  of both functions are the q-numbers ``[m]_q = (q^m - 1) / (q - 1)``, the
  weights of a cut representation are ``alpha_j + Q2 [m]_q`` with
  ``Q2 = (q - 1) alpha_j - 1``, and the ``d``-state cut root is
  ``alpha_j = ([d]_q - 1) / (1 + q^d)``.  ``q = 1`` is Schwinger's
  two-boson limit.
* Closure polynomials ``x + g^(d)(x) + 1`` and ``g^(d)(x) - x`` expanded
  exactly with ``numpy.polynomial`` (degree ``2^d``, used for ``d <= 4``),
  and exact rational evaluation with ``fractions.Fraction`` for any ``d``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

EPS = float(np.finfo(float).eps)

#: ``c`` in the tolerances ``c * eps * scale`` below.
TOL_FACTOR = 1024.0

#: Largest ``d`` for which the closure polynomial is expanded (degree 16).
EXPAND_MAX_D = 4

#: Two oracle roots closer than this (relative to ``max(1, |x|)``) are one root.
ROOT_MATCH_RTOL = 1e-6


def relation_tol(scale: float) -> float:
    """Residual tolerance ``c * eps * max(1, scale)`` for one verification.

    ``scale`` is the largest entry the checked relations produce: the Casimir
    value ``alpha_j (alpha_j + 1)`` on the weight side (``gsl2``, ``jsmap``)
    and the top level ``f^(dim-1)(alpha0)`` on the oscillator side (``gha``).
    The CLI's default ``--tol 1e-10`` is absolute, so it fails large shells
    whose relative error is still near ``1e-14``.
    """
    return TOL_FACTOR * EPS * max(1.0, abs(scale))


def iterate_tol(steps: int, scale: float) -> float:
    """Tolerance for an ``steps``-fold iterate compared with its closed form.

    Rounding grows at most linearly with the number of steps for ``q``
    near 1, so the relation tolerance is widened by ``steps + 1``.
    """
    return (steps + 1) * relation_tol(scale)


def q_number(q: float, m: int) -> float:
    """``[m]_q``; exactly ``m`` at ``q = 1``.

    ``expm1(m log1p(q - 1)) / (q - 1)`` avoids the cancellation in
    ``q**m - 1`` for ``q`` near 1 (``q - 1`` is exact there).
    """
    if q == 1.0:
        return float(m)
    h = q - 1.0
    return math.expm1(m * math.log1p(h)) / h


def cut_root(q: float, d: int) -> float:
    """Highest weight of the ``d``-state cut representation of ``g = q x - 1``."""
    return (q_number(q, d) - 1.0) / (1.0 + q**d)


def q_weights(q: float, alpha_j: float, n: int) -> list[float]:
    """``alpha_j + Q2 [m]_q`` for ``m = 0..n-1``."""
    q2 = (q - 1.0) * alpha_j - 1.0
    return [alpha_j + q2 * q_number(q, m) for m in range(n)]


def q_levels(q: float, alpha0: float, n: int) -> list[float]:
    """Oscillator levels ``f^(m)(alpha0) = q^m alpha0 + [m]_q`` of ``f = q x + 1``."""
    return [q**m * alpha0 + q_number(q, m) for m in range(n)]


def composed(coeffs, d: int) -> Polynomial:
    """``g^(d)`` as an exactly expanded polynomial (ascending coefficients)."""
    g = Polynomial(coeffs)
    p = Polynomial([0.0, 1.0])
    for _ in range(d):
        p = g(p)
    return p


def closure_polynomial(coeffs, d: int, kind: str) -> Polynomial:
    """``x + g^(d)(x) + 1`` for ``kind == "cut"``, ``g^(d)(x) - x`` for ``"periodic"``."""
    if kind == "cut":
        return composed(coeffs, d) + Polynomial([1.0, 1.0])
    if kind == "periodic":
        return composed(coeffs, d) - Polynomial([0.0, 1.0])
    raise ValueError(f"unknown closure kind {kind!r}")


def real_roots(poly: Polynomial, lo: float, hi: float) -> list[float]:
    """Real roots of ``poly`` in ``[lo, hi]``, from companion eigenvalues.

    Near-real eigenvalues (a double root splits into a pair with imaginary
    parts near ``sqrt(eps)``) count as real; each is polished by Newton steps
    and roots within ``ROOT_MATCH_RTOL`` of each other are merged.
    """
    dpoly = poly.deriv()
    found = []
    for z in poly.roots():
        x = float(z.real)
        if abs(z.imag) > ROOT_MATCH_RTOL * max(1.0, abs(x)):
            continue
        for _ in range(4):
            slope = dpoly(x)
            if slope == 0.0 or not math.isfinite(slope):
                break
            step = poly(x) / slope
            if not math.isfinite(step) or abs(step) > ROOT_MATCH_RTOL * max(1.0, abs(x)):
                break
            x = float(x - step)
        if lo <= x <= hi:
            found.append(x)
    found.sort()
    merged: list[float] = []
    for x in found:
        if merged and abs(x - merged[-1]) <= ROOT_MATCH_RTOL * max(1.0, abs(x)):
            continue
        merged.append(x)
    return merged


def match_roots(reported, expected) -> tuple[list[float], list[float]]:
    """Roots reported but not expected, and roots expected but not reported."""
    def near(x, pool):
        return any(abs(x - y) <= ROOT_MATCH_RTOL * max(1.0, abs(y)) for y in pool)

    spurious = [x for x in reported if not near(x, expected)]
    missing = [y for y in expected if not near(y, reported)]
    return spurious, missing


def _horner_exact(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def orbit_exact(coeffs, x0: float, steps: int) -> list[Fraction]:
    """``[x0, g(x0), ..., g^(steps)(x0)]`` in exact rational arithmetic."""
    exact = [Fraction(c) for c in coeffs]
    xs = [Fraction(x0)]
    for _ in range(steps):
        xs.append(_horner_exact(exact, xs[-1]))
    return xs


def closure_value_exact(coeffs, d: int, kind: str, x: Fraction) -> Fraction:
    exact = [Fraction(c) for c in coeffs]
    y = x
    for _ in range(d):
        y = _horner_exact(exact, y)
    return x + y + 1 if kind == "cut" else y - x


def confirms_root(coeffs, d: int, kind: str, x: float, residual_tol: float = 1e-9) -> bool:
    """Whether the closure function really vanishes at ``x``.

    True when the exact value at ``x`` is within ``residual_tol`` relative to
    ``max(1, |x|)``, or when the exact values one part in ``1e9`` either side
    of ``x`` differ in sign (a steep root that float evaluation misses).
    """
    r = Fraction(x)
    if abs(closure_value_exact(coeffs, d, kind, r)) <= residual_tol * max(1.0, abs(x)):
        return True
    h = Fraction(1e-9 * max(1.0, abs(x)))
    left = closure_value_exact(coeffs, d, kind, r - h)
    right = closure_value_exact(coeffs, d, kind, r + h)
    return (left < 0) != (right < 0)


def cut_admissible(coeffs, alpha: float, d: int) -> bool:
    """Whether ``alpha`` heads a ``d``-state cut representation, decided exactly.

    The weights must descend strictly below ``alpha`` and every interior
    ladder square ``alpha (alpha + 1) - w (w + 1)`` must be positive.
    """
    weights = orbit_exact(coeffs, alpha, d)
    top = weights[0]
    if any(not top > w for w in weights[1:d]):
        return False
    c = top * (top + 1)
    return all(c - w * (w + 1) > 0 for w in weights[1:d])

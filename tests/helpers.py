"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from gjsmap import CharFn, GhaRep, Gsl2Rep, Orientation, RepKind, build_gha, build_gsl2

#: Ascending coefficients of x + g^(2)(x) + 1 for g = -x^2 + 3x - 1, expanded
#: exactly by hand:  -x^4 + 6x^3 - 14x^2 + 16x - 4 = 0.
CUT_QUARTIC_ASCENDING = (-4.0, 16.0, -14.0, 6.0, -1.0)


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

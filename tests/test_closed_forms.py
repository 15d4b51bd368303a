"""Periodic points known in closed form, against the closure solver at every depth.

The logistic map ``g = 4x - 4x**2`` (a weight quadratic) is conjugate to the doubling map: with
``x = sin(theta)**2`` it is ``g(x) = sin(2 theta)**2`` (Ulam and von Neumann, 1947).  So the
2^d real solutions of ``g^(d)(x) = x`` are ``sin(k pi / (2^d - 1))**2`` and
``sin(k pi / (2^d + 1))**2``, and the 2^(d-1) of them below the vertex 1/2, where ``k pi / N``
is below ``pi / 4``, lie in the invertibility region.  Each is computed here in ``decimal`` at
60 digits, by series written out below, and rounded once to a float.

The Chebyshev map ``T_3 = 4x**3 - 3x`` satisfies ``T_3(cos(theta)) = cos(3 theta)``, so the
3^d solutions of ``T_3^(d)(x) = x`` are ``cos(2 k pi / (3^d - 1))`` and
``cos(2 k pi / (3^d + 1))``.  A degree-n map that sends n disjoint intervals onto one that
covers them (a full horseshoe: ``1.1 T_3``, ``1 - 2x**2``, ``1.1 - 2.2x**2``) has all n^d
solutions real, as ``T_3`` has by its closed form.  The solutions form a set that g maps
into itself, so the image ``g(r)`` of each root is, up to its rounding, another root.

The counts of roots are exact.  The largest distance, in floats, of a root from its correctly
rounded closed form, and the count of roots whose image is no root, are pinned per depth as
upper bounds, which may only fall.
"""

import bisect
import math
import struct
from decimal import Decimal, localcontext
from functools import cache
from itertools import count

import pytest

from gjsmap import CharFn, Orientation
from gjsmap.gsl2 import RepKind, _closure_roots
from gjsmap.roots import _derivative, _horner

LOGISTIC = CharFn((0.0, 4.0, -4.0), Orientation.WEIGHT)
T3 = CharFn((0.0, -3.0, 0.0, 4.0), Orientation.WEIGHT)
DIGITS = 60

#: Maps with n^d real periodic points, each with the largest depth at which the count is checked.
HORSESHOES = {"T_3": (T3, 6), "1.1 T_3": (CharFn((0.0, -3.3, 0.0, 4.4), Orientation.WEIGHT), 6),
              "1 - 2x^2": (CharFn((1.0, 0.0, -2.0), Orientation.WEIGHT), 7),
              "1.1 - 2.2x^2": (CharFn((1.1, 0.0, -2.2), Orientation.WEIGHT), 7)}

#: The largest float distance of an in-region logistic root from its closed form, per depth.
LOGISTIC_FLOATS_OFF = {1: 0, 2: 0, 3: 3, 4: 1, 5: 4, 6: 10, 7: 37, 8: 67, 9: 139, 10: 221,
                       11: 582, 12: 981}

#: The largest float distance of a ``T_3`` root from its closed form, per depth.
T3_FLOATS_OFF = {1: 0, 2: 1, 3: 2, 4: 6, 5: 6, 6: 25}

#: The count of roots whose image is no root, per depth.
LOGISTIC_IMAGES_OFF = {1: 0, 2: 0, 3: 1, 4: 1, 5: 0, 6: 4, 7: 13, 8: 9, 9: 33, 10: 52, 11: 104,
                       12: 205}
T3_IMAGES_OFF = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 8}


def summed(terms) -> Decimal:
    """The sum of a convergent series, stopped at the first term that no longer changes it."""
    total = Decimal(0)
    for term in terms:
        if total + term == total:
            return total
        total += term


@cache
def pi() -> Decimal:
    """Machin's formula ``pi = 16 arctan(1/5) - 4 arctan(1/239)``, each by its Taylor series."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10

        def arctan_inverse(n: int) -> Decimal:
            return summed(Decimal(-1) ** j / ((2 * j + 1) * Decimal(n) ** (2 * j + 1))
                          for j in count())

        return 16 * arctan_inverse(5) - 4 * arctan_inverse(239)


def sin_terms(theta: Decimal):
    """The Taylor series of ``sin(theta)``, term by term."""
    term, j = theta, 1
    while True:
        yield term
        term *= -theta * theta / ((j + 1) * (j + 2))
        j += 2


def sin_squared(k: int, n: int) -> float:
    """``sin(k pi / n)**2``, correctly rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(summed(sin_terms(pi() * k / n)) ** 2)


def cos_of(k: int, n: int) -> float:
    """``cos(2 k pi / n)``, correctly rounded to a float: ``sin(pi (n - 4k) / 2n)``, whose
    argument is exactly 0 where the cosine is."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(summed(sin_terms(pi() * (n - 4 * k) / (2 * n))))


def chebyshev_forms(d: int) -> list[float]:
    """The 3^d solutions of ``T_3^(d)(x) = x``, sorted: ``k`` runs over ``2 k <= n``, and
    ``-1`` (``2 k = n``) is taken from ``n = 3^d - 1`` alone."""
    low, high = 3**d - 1, 3**d + 1
    return sorted([cos_of(k, low) for k in range(low // 2 + 1)]
                  + [cos_of(k, high) for k in range(1, high // 2)])


@cache
def periodic_roots(fn: CharFn, d: int) -> list[float]:
    """Every root the closure solver gives for ``g^(d)(x) = x``, in region or not, sorted."""
    return sorted(r for r, _ in _closure_roots(fn, d, RepKind.FINITE_PERIODIC))


def closed_forms(d: int) -> list[float]:
    """The 2^(d-1) solutions of ``g^(d)(x) = x`` below 1/2, where ``4 k < n``, sorted;
    ``k = 0`` gives the root 0 once."""
    return sorted(sin_squared(k, n) for n, first in ((2**d - 1, 0), (2**d + 1, 1))
                  for k in range(first, (n + 3) // 4))


def float_index(x: float) -> int:
    """The position of ``x`` among the floats, so that adjacent floats differ by one."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


@pytest.mark.parametrize("d", sorted(LOGISTIC_FLOATS_OFF))
def test_logistic_periodic_points(d):
    roots = sorted(r for r, inside in _closure_roots(LOGISTIC, d, RepKind.FINITE_PERIODIC)
                   if inside)
    exact = closed_forms(d)
    assert len(exact) == 2 ** (d - 1)
    assert len(roots) == 2 ** (d - 1)
    off = max(abs(float_index(r) - float_index(x)) for r, x in zip(roots, exact))
    assert off <= LOGISTIC_FLOATS_OFF[d], off


@pytest.mark.parametrize("name, d", [(name, d) for name, (_, top) in HORSESHOES.items()
                                     for d in range(1, top + 1)])
def test_every_periodic_point_of_a_horseshoe_is_found(name, d):
    fn, _ = HORSESHOES[name]
    assert len(periodic_roots(fn, d)) == fn.degree**d


@pytest.mark.parametrize("d", sorted(T3_FLOATS_OFF))
def test_chebyshev_periodic_points(d):
    roots, exact = periodic_roots(T3, d), chebyshev_forms(d)
    assert len(exact) == len(roots) == 3**d
    off = max(abs(float_index(r) - float_index(x)) for r, x in zip(roots, exact))
    assert off <= T3_FLOATS_OFF[d], off


def images_off(fn: CharFn, roots: list[float]) -> int:
    """How many roots ``r`` have an image ``g(r)`` farther from every root than
    ``|g'(r)| ulp(r) + ulp(g(r))``, the float ``g(r)``'s own error for an ``r`` off by an ulp."""
    slope = _derivative(fn.coefficients)
    off = 0
    for r in roots:
        y = fn(r)
        i = bisect.bisect_left(roots, y)
        gap = min(abs(y - roots[j]) for j in (i - 1, i) if 0 <= j < len(roots))
        off += gap > abs(_horner(slope, r)) * math.ulp(r) + math.ulp(y)
    return off


@pytest.mark.parametrize("fn, d, bound",
                         [(LOGISTIC, d, n) for d, n in LOGISTIC_IMAGES_OFF.items()]
                         + [(T3, d, n) for d, n in T3_IMAGES_OFF.items()],
                         ids=[f"logistic-{d}" for d in LOGISTIC_IMAGES_OFF]
                         + [f"T_3-{d}" for d in T3_IMAGES_OFF])
def test_the_image_of_a_root_is_a_root(fn, d, bound):
    off = images_off(fn, periodic_roots(fn, d))
    assert off <= bound, off

"""Periodic points known in closed form, against the closure solver at every depth.

The logistic map ``g = 4x - 4x**2`` (a weight quadratic) is conjugate to the doubling map: with
``x = sin(theta)**2`` it is ``g(x) = sin(2 theta)**2`` (Ulam and von Neumann, 1947).  So the
2^d real solutions of ``g^(d)(x) = x`` are ``sin(k pi / (2^d - 1))**2`` and
``sin(k pi / (2^d + 1))**2``, and the 2^(d-1) of them below the vertex 1/2, where ``k pi / N``
is below ``pi / 4``, lie in the invertibility region.  Each is computed here in ``decimal`` at
60 digits, by series written out below, and rounded once to a float.

The count of in-region roots is exact.  The largest distance, in floats, of a root from its
correctly rounded closed form is pinned per depth as an upper bound, which may only fall.
"""

import struct
from decimal import Decimal, localcontext
from functools import cache
from itertools import count

import pytest

from gjsmap import CharFn, Orientation
from gjsmap.gsl2 import RepKind, _closure_roots

LOGISTIC = CharFn((0.0, 4.0, -4.0), Orientation.WEIGHT)
DIGITS = 60

#: The largest float distance of an in-region logistic root from its closed form, per depth.
LOGISTIC_FLOATS_OFF = {1: 0, 2: 0, 3: 3, 4: 1, 5: 4, 6: 10, 7: 37, 8: 67, 9: 139, 10: 221,
                       11: 582, 12: 981}


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

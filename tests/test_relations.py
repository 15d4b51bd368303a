"""Relations the mathematics fixes, checked without a second implementation.

Conjugation by a power of two: ``g_k(x) = 2^k g(x / 2^k)`` has the exact coefficients
``c_i 2^(k(1-i))``, and each Horner step of ``g_k`` at ``2^k x`` is ``2^k`` times that of ``g``
at ``x``, barring overflow and underflow.  So orbits, the invertibility region, roots, fixed
points and periodic roots scale by ``2^k`` exactly, and for even ``k`` the oscillator ladder
by ``2^(k/2)``.

Negation: the reflection partner ``g(x) = -f(-x)`` has ``g^(d)(x) = -f^(d)(-x)``, exactly in
floats too, since negation is exact.  So orbits and periodic roots negate, and a quadratic's
analysis (region, fixed points, region labels) is its partner's reflected.

Divisibility: for ``e | d`` every solution of ``g^(e)(x) = x`` solves ``g^(d)(x) = x``.

Where a relation goes through the root isolator it does not hold exactly today; the count of
draws that break it at the seed is pinned as an upper bound, which may only fall.
"""

import math
import random
import struct
from functools import cache

from gjsmap import (
    CharFn,
    Orientation,
    build_gha,
    classify_region,
    find_roots,
    fixed_points,
    invertibility_region,
    iterate,
    periodic_condition_solve,
    reflection_pair,
)
from gjsmap.errors import GjsError, NoRealFixedPoint, OverflowDiverged, UnsupportedDiscriminant

KS = (2, 10, 40, -2, -10, -40)
DRAWS = 300


def conjugate_coefficients(coeffs, k: int) -> tuple[float, ...]:
    """The coefficients of ``2^k p(x / 2^k)``, which are exact."""
    return tuple(c * 2.0 ** (k * (1 - i)) for i, c in enumerate(coeffs))


def conjugate(fn: CharFn, k: int) -> CharFn:
    """``2^k fn(x / 2^k)``."""
    return CharFn(conjugate_coefficients(fn.coefficients, k), fn.orientation)


def random_fn(rng: random.Random, orientation: Orientation | None = None) -> CharFn:
    """A linear, quadratic or cubic with coefficients in [-2, 2]; a quadratic opens the way its
    orientation asks."""
    coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 4))]
    orientation = orientation or rng.choice(list(Orientation))
    if len(coeffs) == 3:
        coeffs[2] = abs(coeffs[2]) if orientation is Orientation.OSCILLATOR else -abs(coeffs[2])
    return CharFn(tuple(coeffs), orientation)


def normal(xs) -> bool:
    """Every value is 0 or far from underflow and overflow at any of the scales ``KS``."""
    return all(x == 0.0 or 2.0**-960 < abs(x) < 2.0**960 for x in xs)


def test_conjugation_scales_every_orbit_exactly():
    rng = random.Random(7)
    checked = 0
    for _ in range(DRAWS):
        fn, k = random_fn(rng), rng.choice(KS)
        x0, m = rng.uniform(-2.0, 2.0), rng.randint(1, 30)
        try:
            orbit, scaled = iterate(fn, x0, m), iterate(conjugate(fn, k), x0 * 2.0**k, m)
        except OverflowDiverged:  # one side left the divergence bound
            continue
        if normal(orbit) and normal(scaled):
            assert scaled == [x * 2.0**k for x in orbit], (fn, k, x0, m)
            checked += 1
    assert checked >= 150


def test_conjugation_scales_the_oscillator_ladder_exactly():
    rng = random.Random(7)
    checked = 0
    for _ in range(DRAWS):
        fn, k = random_fn(rng, Orientation.OSCILLATOR), rng.choice(KS)
        lo, hi = invertibility_region(fn)
        alpha0, dim = rng.uniform(max(lo, -2.0), min(hi, 2.0)), rng.randint(2, 12)
        try:
            rep = build_gha(fn, alpha0, dim)
            scaled = build_gha(conjugate(fn, k), alpha0 * 2.0**k, dim)
        except (GjsError, ValueError):  # no vacuum there, a falling orbit, or divergence
            continue
        assert list(scaled.eigenvalues) == [x * 2.0**k for x in rep.eigenvalues], (fn, k)
        assert list(scaled.ladder) == [x * 2.0 ** (k // 2) for x in rep.ladder], (fn, k)
        checked += 1
    assert checked >= 50


#: Cubics whose scaled region differs at ``random.Random(7)``: their region ends at a
#: critical point that ``find_roots`` isolates, which moves it by an ulp or drops it.
CUBIC_REGIONS_OFF = 6


def test_conjugation_scales_the_invertibility_region():
    rng = random.Random(7)
    off = []
    for _ in range(DRAWS):
        fn, k = random_fn(rng), rng.choice(KS)
        lo, hi = invertibility_region(fn)
        same = invertibility_region(conjugate(fn, k)) == (lo * 2.0**k, hi * 2.0**k)
        if fn.degree < 3:  # a vertex or the whole line: no root to isolate
            assert same, (fn, k)
        elif not same:
            off.append((fn, k))
    assert len(off) <= CUBIC_REGIONS_OFF, off


def test_the_reflection_partner_negates_every_orbit_exactly():
    rng = random.Random(7)
    checked = 0
    for _ in range(DRAWS):
        fn = random_fn(rng)
        x0, m = rng.uniform(-2.0, 2.0), rng.randint(1, 30)
        try:
            orbit = iterate(fn, x0, m)
        except OverflowDiverged:
            continue
        assert iterate(reflection_pair(fn), -x0, m) == [-x for x in orbit], (fn, x0, m)
        checked += 1
    assert checked >= 150


def fixed_points_or_none(fn: CharFn):
    try:
        return fixed_points(fn)
    except NoRealFixedPoint:
        return None


def label_or_none(fn: CharFn, x0: float):
    """``fn``'s region label of ``x0``; None where ``fn`` is not tangent."""
    try:
        return classify_region(fn, x0)
    except UnsupportedDiscriminant:
        return None


def test_the_reflection_partner_mirrors_the_quadratic_analysis_exactly():
    rng = random.Random(7)
    labelled = 0
    for _ in range(DRAWS):
        orientation = rng.choice(list(Orientation))
        a1, a2 = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)
        a2 = a2 if orientation is Orientation.OSCILLATOR else -a2
        tangent = rng.random() < 0.5  # the fixed-point discriminant vanishes
        a0 = (a1 - 1.0) ** 2 / (4.0 * a2) if tangent else rng.uniform(-2.0, 2.0)
        fn = CharFn((a0, a1, a2), orientation)
        g = reflection_pair(fn)
        lo, hi = invertibility_region(fn)
        assert invertibility_region(g) == (-hi, -lo), fn
        points, mirrored = fixed_points_or_none(fn), fixed_points_or_none(g)
        if points is None:
            assert mirrored is None, fn
            points = mirrored = []
        assert [((-p.location).hex(), p.multiplier.hex(), p.stability) for p in points[::-1]] == [
            (q.location.hex(), q.multiplier.hex(), q.stability) for q in mirrored], fn
        edges = [x for x in (lo, hi) + tuple(p.location for p in points) if math.isfinite(x)]
        x0s = [rng.uniform(-3.0, 3.0)] + [y for x in edges for y in (
            x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf), x - 2e-12, x + 2e-12)]
        for x0 in x0s:
            label = label_or_none(fn, x0)
            assert label_or_none(g, -x0) == label, (fn, x0)
            labelled += label is not None
    assert labelled >= 1000


# ------------------------------------------------ relations through the root isolator

#: The scales of the isolator sweeps.
ISOLATOR_KS = (3, 7, 20, -3, -7, -20)
#: The periods ``d`` the sweep solves, and the pairs ``(e, d)`` with ``e | d`` it compares.
PERIODS = (1, 2, 3, 4, 6)
DIVISORS = ((1, 2), (1, 3), (2, 4), (1, 4), (3, 6))
#: A root of ``g^(d)(x) = x`` farther than this many floats from every period-e root is missing.
NEAR_FLOATS = 1000


def coefficient(rng: random.Random) -> float:
    """``±10^U(-2, 1)``."""
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 1.0)


def weight_fn(rng: random.Random) -> CharFn:
    """A weight quadratic (opening down) or cubic with coefficients ``±10^U(-2, 1)``."""
    coeffs = [coefficient(rng) for _ in range(rng.randint(3, 4))]
    if len(coeffs) == 3:
        coeffs[2] = -abs(coeffs[2])
    return CharFn(tuple(coeffs), Orientation.WEIGHT)


@cache
def periodic_sweep() -> tuple[tuple[CharFn, dict[int, tuple[float, ...]]], ...]:
    """80 weight functions from ``random.Random(3)``, each with its periodic roots at every d
    of ``PERIODS``."""
    rng = random.Random(3)
    fns = [weight_fn(rng) for _ in range(80)]
    return tuple((g, {d: periodic_condition_solve(g, d) for d in PERIODS}) for g in fns)


def float_index(x: float) -> int:
    """Consecutive floats have consecutive indices."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


#: Period-e roots at ``random.Random(3)`` with no period-d root within ``NEAR_FLOATS`` floats
#: (steep roots that the residual filter drops), and those found moved by a few floats.
DIVISIBILITY_MISSING = 22
DIVISIBILITY_MOVED = 47


def test_a_period_e_root_is_a_root_at_each_multiple_d():
    missing, moved, checked = [], [], 0
    for g, roots in periodic_sweep():
        for e, d in DIVISORS:
            for r in roots[e]:
                checked += 1
                apart = min((abs(float_index(s) - float_index(r)) for s in roots[d]),
                            default=math.inf)
                if apart > NEAR_FLOATS:
                    missing.append((g, e, d, r))
                elif apart:
                    moved.append((g, e, d, r))
    assert checked >= 450
    assert len(missing) <= DIVISIBILITY_MISSING, missing
    assert len(moved) <= DIVISIBILITY_MOVED, moved


def scaled_or_off(found, scaled, k: int) -> bool:
    """Whether ``scaled`` is not ``found`` times ``2^k``."""
    return list(scaled) != [x * 2.0**k for x in found]


#: Draws at ``random.Random(11)`` whose conjugate gives other roots than the scaled ones.
CONJUGATE_ROOTS_OFF = 5
CONJUGATE_PERIODIC_OFF = 5
CONJUGATE_FIXED_POINTS_OFF = 1


def test_conjugation_scales_the_roots_of_a_polynomial():
    rng = random.Random(11)
    off = []
    for _ in range(150):
        coeffs, k = [coefficient(rng) for _ in range(rng.randint(3, 6))], rng.choice(ISOLATOR_KS)
        scaled = conjugate_coefficients(coeffs, k)
        if scaled_or_off(find_roots(coeffs), find_roots(scaled), k):
            off.append((coeffs, k))
    assert len(off) <= CONJUGATE_ROOTS_OFF, off


def test_conjugation_scales_the_periodic_roots():
    rng = random.Random(11)
    off = []
    for g, roots in periodic_sweep():
        k, d = rng.choice(ISOLATOR_KS), rng.choice(PERIODS[:4])
        if scaled_or_off(roots[d], periodic_condition_solve(conjugate(g, k), d), k):
            off.append((g, k, d))
    assert len(off) <= CONJUGATE_PERIODIC_OFF, off


def test_conjugation_scales_the_fixed_points():
    def locations(fn: CharFn) -> list[float]:
        try:
            return [p.location for p in fixed_points(fn)]
        except NoRealFixedPoint:
            return []

    rng = random.Random(11)
    off = []
    for g, _ in periodic_sweep():
        k = rng.choice(ISOLATOR_KS)
        if scaled_or_off(locations(g), locations(conjugate(g, k)), k):
            off.append((g, k))
    assert all(g.degree == 3 for g, _ in off), off  # a quadratic's closed form scales exactly
    assert len(off) <= CONJUGATE_FIXED_POINTS_OFF, off


#: Draws at ``random.Random(11)`` whose reflection partner's periodic roots are not the negated
#: roots: the solver's interval ``[-R, 1.3 R]`` is not symmetric.
REFLECTED_PERIODIC_OFF = 10


def test_the_reflection_partner_negates_the_periodic_roots():
    rng = random.Random(11)
    off = []
    for g, roots in periodic_sweep():
        d = rng.choice(PERIODS[:4])
        if periodic_condition_solve(reflection_pair(g), d) != tuple(sorted(-r for r in roots[d])):
            off.append((g, d))
    assert len(off) <= REFLECTED_PERIODIC_OFF, off

"""Real polynomial characteristic functions and their fixed-point analysis.

The eigenvalue ladder of a generalized oscillator (or weight) algebra is the
orbit of a start value under the algebra's characteristic function, so the
question of finite- versus infinite-dimensional representations reduces to
elementary one-dimensional dynamics: fixed points, their stability, and which
side of the invertibility boundary an orbit starts on.  This module implements
that analysis for real polynomials.

Polynomials are stored as ascending coefficient lists ``a_0..a_n`` and carry
an orientation tag saying on which side of the vertex a quadratic is taken to
be invertible: oscillator-like functions open upward and act above the
vertex, weight-like functions open downward and act below it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .encoding import _record_data
from .errors import (
    NoRealFixedPoint,
    NotQuadratic,
    OverflowDiverged,
    UnsupportedDiscriminant,
)

#: Default magnitude bound beyond which an orbit counts as diverged.
DIVERGENCE_BOUND = 1e12

#: The least positive float.
_TINY = math.ulp(0.0)

#: |discriminant| below this (times a coefficient scale) counts as zero.
DOUBLE_ROOT_RTOL = 1e-9

#: |multiplier| within this of 1 classifies a fixed point as neutral.
NEUTRAL_MULTIPLIER_TOL = 1e-9

#: |x0 - fixed point| below this counts as starting on the fixed point.
ON_FIXED_POINT_TOL = 1e-12

#: Offset used to probe one-sided behaviour around a tangent fixed point.
TANGENT_PROBE = 1e-6


class Orientation(Enum):
    """Which side of the vertex a quadratic is invertible on."""

    OSCILLATOR = "oscillator"
    WEIGHT = "weight"


class Stability(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    NEUTRAL_TANGENT = "neutral_tangent"


class OneSidedBehavior(Enum):
    """How orbits behave on either side of a neutral (tangent) fixed point."""

    CONVERGES_FROM_BELOW = "converges_from_below"
    CONVERGES_FROM_ABOVE = "converges_from_above"
    DIVERGES_BOTH_SIDES = "diverges_both_sides"
    ATTRACTING = "attracting"


class RegionLabel(Enum):
    ON_FIXED_POINT = "on_fixed_point"
    CONVERGENT_INTERVAL = "convergent_interval"
    DIVERGENT_INTERVAL = "divergent_interval"
    OUTSIDE_INVERTIBLE_REGION = "outside_invertible_region"


def _strip_trailing_zeros(coeffs: Sequence[float]) -> list[float]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return out


def _horner(coeffs: Sequence[float], x):
    """Nested (Horner) evaluation; ``x`` may be a float or an ndarray."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _interval_product(a_lo, a_hi, b_lo, b_hi):
    """Enclosure of the products of ``[a_lo, a_hi]`` and ``[b_lo, b_hi]`` (ndarrays)."""
    import numpy as np

    p, q, r, s = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi
    return (np.minimum(np.minimum(p, q), np.minimum(r, s)),
            np.maximum(np.maximum(p, q), np.maximum(r, s)))


def _horner_interval(coeffs: Sequence[float], lo, hi):
    """Enclosure ``(lo, hi)`` of :func:`_horner` over the boxes ``[lo, hi]`` (ndarrays).

    The operations are :func:`_horner`'s in the same order, each product
    bounded by the least and greatest of its corner products (R. E. Moore,
    *Interval Analysis*, 1966).  Rounding to nearest is monotone, so at every
    point of a box the float :func:`_horner` returns is NaN or lies in the
    box's enclosure, unless a bound is NaN (a corner product ``0 * inf``).
    """
    import numpy as np  # only array callers get here; module import stays numpy-free

    if len(coeffs) == 1:
        return np.full_like(lo, coeffs[0]), np.full_like(hi, coeffs[0])
    p, q = coeffs[-1] * lo, coeffs[-1] * hi
    acc_lo, acc_hi = np.minimum(p, q), np.maximum(p, q)
    for c in coeffs[-2:0:-1]:
        acc_lo, acc_hi = _interval_product(acc_lo + c, acc_hi + c, lo, hi)
    return acc_lo + coeffs[0], acc_hi + coeffs[0]


def _dyadic(coeffs: Sequence[float]) -> tuple[list[int], int]:
    """Integers ``n_k`` and ``top`` with ``coeffs[k] == n_k / 2**top`` exactly."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    top = max(den.bit_length() for _, den in ratios) - 1
    return [num << (top + 1 - den.bit_length()) for num, den in ratios], top


def _derivative(coeffs: Sequence[float]) -> list[float]:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0.0]


@dataclass(frozen=True)
class CharFn:
    """A real polynomial ``a_0 + a_1 x + ... + a_n x**n`` with an orientation.

    The coefficient list may carry trailing zeros; degree-dependent operations
    ignore them.  Constant polynomials are rejected, and quadratics must open
    upward (oscillator) or downward (weight) to match their orientation.
    """

    coefficients: tuple[float, ...]
    orientation: Orientation

    def __post_init__(self):
        try:
            coeffs = tuple(float(c) for c in self.coefficients)
        except OverflowError as exc:
            raise ValueError(f"coefficient too large for a float: {exc}") from exc
        orientation = (
            self.orientation
            if isinstance(self.orientation, Orientation)
            else Orientation(self.orientation)
        )
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "orientation", orientation)
        stripped = _strip_trailing_zeros(coeffs)
        if len(stripped) < 2:
            raise ValueError("characteristic function must have degree >= 1")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        if len(stripped) == 3:
            lead = stripped[2]
            if orientation is Orientation.OSCILLATOR and lead <= 0.0:
                raise ValueError(
                    "oscillator-like quadratic needs a positive leading coefficient"
                )
            if orientation is Orientation.WEIGHT and lead >= 0.0:
                raise ValueError(
                    "weight-like quadratic needs a negative leading coefficient"
                )

    @property
    def degree(self) -> int:
        return len(_strip_trailing_zeros(self.coefficients)) - 1

    def __call__(self, x):
        return evaluate(self, x)


def charfn_to_dict(fn: CharFn) -> dict:
    """JSON-ready form: ``{"coefficients": [...], "orientation": "..."}``."""
    return _record_data(fn)


def charfn_from_dict(data: dict) -> CharFn:
    try:
        coefficients = data["coefficients"]
        orientation = data["orientation"]
    except (TypeError, KeyError) as exc:
        raise ValueError(
            "characteristic function needs 'coefficients' and 'orientation'"
        ) from exc
    return CharFn(tuple(coefficients), Orientation(orientation))


def evaluate(fn: CharFn, x):
    """Value of ``fn`` at ``x``, in nested (Horner) form.

    ``x`` may be a float or an ndarray; the per-element operation order is
    identical either way.
    """
    return _horner(fn.coefficients, x)


def derivative_at(fn: CharFn, x):
    """Value of ``fn'`` at ``x``."""
    return _horner(_derivative(fn.coefficients), x)


def iterate(fn: CharFn, x0: float, m: int, bound: float = DIVERGENCE_BOUND) -> list[float]:
    """The orbit ``[x0, fn(x0), ..., fn^(m)(x0)]`` (length ``m + 1``).

    Each step is :func:`_horner` inlined: the same operations in the same
    order over every coefficient, trailing zeros included, so the orbit is
    bit for bit that of repeated :func:`evaluate` calls.  Each iterate is
    checked as it is made, by two comparisons against the bound capped at the
    largest finite float, which is ``abs(x) <= bound and math.isfinite(x)``.

    Raises
    ------
    OverflowDiverged
        If any iterate exceeds ``bound`` in magnitude or stops being finite.
        The partial orbit, offending value included, rides on the exception.
    """
    if m < 0:
        raise ValueError("iteration count must be non-negative")
    x = float(x0)
    xs = [x]
    if not (abs(x) <= bound and math.isfinite(x)):
        raise OverflowDiverged(f"start value {x!r} already exceeds the bound {bound!r}", xs)
    if m == 0:
        return xs
    lead, rest, append = fn.coefficients[-1], fn.coefficients[-2::-1], xs.append
    # The start check passed, so 0 <= bound; capped at the largest float, inf and NaN fail.
    hi = bound if bound < math.inf else math.nextafter(math.inf, 0.0)
    lo = -hi
    for step in range(1, m + 1):
        acc = lead
        for c in rest:
            acc = acc * x + c
        x = acc
        append(x)
        if not lo <= x <= hi:
            raise OverflowDiverged(f"iterate {step} = {x!r} exceeds the bound {bound!r}", xs)
    return xs


@dataclass(frozen=True)
class FixedPointInfo:
    """One real fixed point with its multiplier and stability label.

    ``one_sided_behavior`` is set only for neutral (tangent) fixed points,
    where the generic attracting/repelling dichotomy does not apply.
    """

    location: float
    multiplier: float
    stability: Stability
    one_sided_behavior: Optional[OneSidedBehavior] = None

    def to_dict(self) -> dict:
        return _record_data(self)


def _tangency(c0: float, c1: float, c2: float) -> tuple[float, bool]:
    """Discriminant of ``c0 + c1 x + c2 x**2`` and whether it counts as zero.

    Zero means within ``DOUBLE_ROOT_RTOL`` of the coefficient scale; the
    quadratic then has one (double) root.
    """
    disc = c1 * c1 - 4.0 * c2 * c0
    if not math.isfinite(disc):
        raise ValueError(f"the discriminant of {c0!r} + {c1!r} x + {c2!r} x**2 is {disc!r}")
    scale = max(1.0, c1 * c1, abs(4.0 * c2 * c0))
    return disc, abs(disc) <= DOUBLE_ROOT_RTOL * scale


def _fixed_point_poly(fn: CharFn) -> list[float]:
    """Coefficients of h(x) = fn(x) - x."""
    h = list(fn.coefficients)
    h[1] -= 1.0
    return _strip_trailing_zeros(h)


def _taylor_at(coeffs: Sequence[float], p: float) -> list[float]:
    """Re-expand a polynomial around ``p`` by repeated synthetic division."""
    work = list(coeffs)
    n = len(work)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            work[j] += p * work[j + 1]
    return work


def _one_sided(h: Sequence[float], p: float) -> OneSidedBehavior:
    # Sign of fn(x) - x just left/right of the tangency decides which side
    # creeps in and which escapes.  Probing the shifted form keeps the sign
    # honest when the leading local term is far below the raw coefficients
    # (direct evaluation of a cubic tangency at p +- 1e-6 is pure noise);
    # the constant term is the root residual and is dropped.
    local = _taylor_at(h, p)
    local[0] = 0.0
    below_up = _horner(local, -TANGENT_PROBE) > 0.0
    above_up = _horner(local, TANGENT_PROBE) > 0.0
    if below_up and above_up:
        return OneSidedBehavior.CONVERGES_FROM_BELOW
    if not below_up and not above_up:
        return OneSidedBehavior.CONVERGES_FROM_ABOVE
    if above_up:
        return OneSidedBehavior.DIVERGES_BOTH_SIDES
    return OneSidedBehavior.ATTRACTING


def _info_at(fn: CharFn, h: Sequence[float], p: float) -> FixedPointInfo:
    mult = float(derivative_at(fn, p))
    if abs(abs(mult) - 1.0) <= NEUTRAL_MULTIPLIER_TOL:
        return FixedPointInfo(p, mult, Stability.NEUTRAL_TANGENT, _one_sided(h, p))
    if abs(mult) < 1.0:
        return FixedPointInfo(p, mult, Stability.ATTRACTING)
    return FixedPointInfo(p, mult, Stability.REPELLING)


def fixed_points(fn: CharFn) -> list[FixedPointInfo]:
    """All real fixed points of ``fn``, sorted by location.

    Quadratics go through the closed form with a stable evaluation of the
    quadratic formula; a discriminant within ``DOUBLE_ROOT_RTOL`` (relative to
    the coefficient scale) of zero is treated as an exact double root and
    reported once.  Higher degrees go through :func:`find_roots`.

    Raises
    ------
    NoRealFixedPoint
        If ``fn(x) - x`` has no real root.
    """
    h = _fixed_point_poly(fn)
    if len(h) == 1:
        if h[0] == 0.0:
            raise ValueError("fn(x) = x: every point is a fixed point")
        raise NoRealFixedPoint(f"fn(x) - x = {h[0]!r} never vanishes")
    if len(h) == 2:
        locations = [-h[0] / h[1]]
    elif len(h) == 3:
        c0, c1, c2 = h
        disc, tangent = _tangency(c0, c1, c2)
        if tangent:
            locations = [-c1 / (2.0 * c2)]
        elif disc < 0.0:
            raise NoRealFixedPoint("fixed-point discriminant is negative")
        else:
            sq = math.sqrt(disc)
            q = -0.5 * (c1 + math.copysign(sq, c1))
            locations = sorted((q / c2, c0 / q))
    else:
        locations = find_roots(h, (-math.inf, math.inf), 1e-12)
        if not locations:
            raise NoRealFixedPoint("no real root of fn(x) - x")
    return [_info_at(fn, h, p) for p in locations]


def _quadratic_coeffs(fn: CharFn) -> tuple[float, float, float]:
    stripped = _strip_trailing_zeros(fn.coefficients)
    if len(stripped) != 3:
        raise NotQuadratic(f"degree is {len(stripped) - 1}, need 2")
    return stripped[0], stripped[1], stripped[2]


def discriminant(fn: CharFn) -> float:
    """Discriminant of the fixed-point equation ``fn(x) - x = 0``.

    In coefficient form this is ``(a_1 - 1)**2 - 4 a_2 a_0``, which covers
    both orientations with no sign bookkeeping.
    """
    a0, a1, a2 = _quadratic_coeffs(fn)
    return _tangency(a0, a1 - 1.0, a2)[0]


def invertibility_boundary(fn: CharFn) -> float:
    """Vertex ``-a_1 / (2 a_2)`` bounding the invertible half-line."""
    _, a1, a2 = _quadratic_coeffs(fn)
    return -a1 / (2.0 * a2)


def invertibility_region(fn: CharFn) -> tuple[float, float]:
    """Open interval on which ``fn`` is taken to be invertible.

    Quadratics are bounded by their vertex, the whole line works for linear
    functions, and higher degrees are bounded by the critical point nearest
    the orientation's unbounded side.
    """
    stripped = _strip_trailing_zeros(fn.coefficients)
    if len(stripped) == 2:
        return (-math.inf, math.inf)
    if len(stripped) == 3:
        vertex = invertibility_boundary(fn)
        if fn.orientation is Orientation.OSCILLATOR:
            return (vertex, math.inf)
        return (-math.inf, vertex)
    slope = _derivative(stripped)
    if not all(map(math.isfinite, slope)):
        raise ValueError(f"the derivative {slope!r} of fn overflows, so its region is unknown")
    crit = find_roots(slope, (-math.inf, math.inf), 1e-12)
    if not crit:
        return (-math.inf, math.inf)
    if fn.orientation is Orientation.OSCILLATOR:
        return (max(crit), math.inf)
    return (-math.inf, min(crit))


def classify_region(fn: CharFn, x0: float) -> RegionLabel:
    """Which dynamical region a start value falls in.

    Only quadratics with a vanishing fixed-point discriminant are supported:
    that is the tangent case where one side of the fixed point converges and
    the other diverges.

    Raises
    ------
    NotQuadratic
        For non-quadratic polynomials.
    UnsupportedDiscriminant
        If the discriminant is not zero within tolerance.
    """
    a0, a1, a2 = _quadratic_coeffs(fn)
    disc, tangent = _tangency(a0, a1 - 1.0, a2)
    if not tangent:
        raise UnsupportedDiscriminant(
            f"discriminant {disc!r} is not zero; region structure undefined"
        )
    star = -(a1 - 1.0) / (2.0 * a2)
    boundary = -a1 / (2.0 * a2)
    if abs(x0 - star) <= ON_FIXED_POINT_TOL:
        return RegionLabel.ON_FIXED_POINT
    if fn.orientation is Orientation.OSCILLATOR:
        if x0 <= boundary:
            return RegionLabel.OUTSIDE_INVERTIBLE_REGION
        return (
            RegionLabel.CONVERGENT_INTERVAL
            if x0 < star
            else RegionLabel.DIVERGENT_INTERVAL
        )
    if x0 >= boundary:
        return RegionLabel.OUTSIDE_INVERTIBLE_REGION
    return (
        RegionLabel.CONVERGENT_INTERVAL
        if x0 > star
        else RegionLabel.DIVERGENT_INTERVAL
    )


def reflection_pair(fn: CharFn) -> CharFn:
    """Partner polynomial ``g`` with ``g(-x) = -fn(x)``.

    Even-index coefficients (constant included) flip sign, odd-index ones are
    kept, and the orientation flips.  Pairing a +1-constant oscillator
    function this way yields the -1-constant weight function whose Gauss
    numbers match the original's.
    """
    coeffs = tuple(
        -c if i % 2 == 0 else c for i, c in enumerate(fn.coefficients)
    )
    flipped = (
        Orientation.WEIGHT
        if fn.orientation is Orientation.OSCILLATOR
        else Orientation.OSCILLATOR
    )
    return CharFn(coeffs, flipped)


def _bisect(func: Callable[[float], float], u: float, v: float, fu: float, fv: float) -> float:
    """Refine a sign-change bracket down to float resolution.

    A bracket about 0 is split at 0.  One of one sign is split at its
    geometric mean while its ends lie more than a factor of two apart, which
    halves its span of binades (at most 2,098), so 12 such splits end that;
    then at ``u + (v - u) / 2``, which is ``(u + v) / 2`` rounded once, since
    ``v - u`` is exact there.  That halves the at most 2**53 floats inside,
    so any bracket takes about 65 splits at most.
    """
    while True:
        if 0.0 < u and v <= 2.0 * u or v < 0.0 and u >= 2.0 * v:
            m = u + 0.5 * (v - u)
        elif u < 0.0 < v:
            m = 0.0
        else:  # 0 at an end stands for the least positive float
            m = math.copysign(math.sqrt(max(abs(u), _TINY)) * math.sqrt(max(abs(v), _TINY)), u + v)
        if not (u < m < v):
            break
        fm = func(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fu < 0.0):
            u, fu = m, fm
        else:
            v, fv = m, fm
    return v if abs(fv) < abs(fu) else u


#: Boxes the first level of :func:`isolate_roots` cuts its interval into, and
#: the children each later level cuts an unresolved box into.
BOXES = 512
SPLIT = 16


def _composition(coeffs: Sequence[float], d: int, sign: float, shift: float):
    """``(func, exact, dfunc, rounding, enclose, slope, curve)`` of ``F = g^(d) + sign x + shift``.

    ``g`` is ``coeffs`` without trailing zeros (they change only values that
    are not finite anyway); ``sign`` is -1, 0 or 1 and ``shift`` an integer.
    ``exact(x)`` is ``F(x)`` in integers over powers of two rounded once, so
    its sign is exact, and ``exact(x, slope=True)`` is ``F'(x)`` so, up to
    degree ``BOXES * SPLIT``; ``dfunc`` is the chain rule
    ``g'(x) g'(g(x)) ... + sign``.  ``rounding(x)`` bounds, to first order,
    the rounding in ``func(x)`` (Higham's Horner bound, carried along the
    chain rule), and ``rounding(x, slope=True)`` that in ``dfunc(x)``.
    ``enclose(lo, hi)`` bounds ``F`` over boxes, with the iterate bounds from
    which ``slope`` bounds ``F'``, by the operations of ``func`` and
    ``dfunc`` in their order, so they hold every float those return there
    (``tight`` cuts each iterate to its mean-value form, which bounds the
    exact iterate); ``curve`` bounds ``F''`` by
    ``(h o g)'' = h''(g) g'^2 + h'(g) g''``.
    """
    import numpy as np

    coeffs = _strip_trailing_zeros(coeffs)
    dcoeffs = _derivative(coeffs)
    ddcoeffs = _derivative(dcoeffs)
    lead, rest = coeffs[-1], coeffs[-2::-1]
    ints, top = _dyadic(coeffs)
    dints = [i * c for i, c in enumerate(ints)][1:] or [0]
    magnitudes, dmagnitudes = [abs(c) for c in coeffs], [abs(c) for c in dcoeffs]
    gamma = 2.0 * len(coeffs) * 2.0**-53  # Higham's gamma_2n, to first order
    tiny = 2.0 * len(coeffs) * 2.0**-1074  # what underflow may add to a Horner value

    def func(x):
        y = x
        for _ in range(d):  # _horner, inlined: this is what bisection evaluates
            acc = lead
            for c in rest:
                acc = acc * y + c
            y = acc
        return y + sign * x + shift

    def horner_int(cs, y, e):  # sum cs[i] (y / 2**e)**i / 2**top as acc / 2**a
        acc, a = cs[-1], top
        for c in cs[-2::-1]:
            acc, a = acc * y + (c << (a + e - top)), a + e
        return acc, a

    def exact(x, slope=False):
        num, den = x.as_integer_ratio()
        y, e = num, den.bit_length() - 1  # y / 2**e
        s, f = 1, 0  # the chain-rule product s / 2**f
        for i in range(d):
            if slope:
                t, a = horner_int(dints, y, e)
                s, f = s * t, f + a
                if i == d - 1:
                    break
            y, e = horner_int(ints, y, e)
        if slope:
            y, e = s + (int(sign) << f), f
        else:
            y += (int(sign) * num << (e + 1 - den.bit_length())) + (int(shift) << e)
        try:
            return y / (1 << e)
        except OverflowError:
            return math.inf if y > 0 else -math.inf

    def dfunc(x):
        out = _horner(dcoeffs, x)
        for _ in range(d - 1):
            x = _horner(coeffs, x)
            out = out * _horner(dcoeffs, x)
        return out + sign

    def rounding(x, slope=False):
        y, err, p, perr = x, 0.0, 1.0, 0.0  # g^(k)(x), its rounding; the product of g' so far
        for _ in range(d):
            t = _horner(dcoeffs, y)
            if slope:  # t is off by its own rounding and by g'' times that of y
                t_err = gamma * _horner(dmagnitudes, abs(y)) + abs(_horner(ddcoeffs, y)) * err
                p, perr = p * t, abs(t) * perr + abs(p) * (t_err + tiny)
            err = abs(t) * err + gamma * _horner(magnitudes, abs(y)) + tiny
            y = _horner(coeffs, y)
        if slope:
            return perr + gamma * (abs(p) + 1.0) + tiny
        return err + gamma * (abs(y) + abs(x) + abs(shift)) + tiny

    def enclose(lo, hi, tight=False):
        ys = [(lo, hi)]
        for _ in range(d):
            y_lo, y_hi = y = ys[-1]
            ys.append(_horner_interval(coeffs, *y))
            if tight:  # cut to the mean-value form g(m) + g'(Y)(Y - m), m the midpoint
                m = 0.5 * (y_lo + y_hi)
                t = _interval_product(*_horner_interval(dcoeffs, *y), y_lo - m, y_hi - m)
                gm = _horner(coeffs, m)
                ys[-1] = np.fmax(ys[-1][0], gm + t[0]), np.fmin(ys[-1][1], gm + t[1])
        x_lo, x_hi = (sign * lo, sign * hi) if sign >= 0.0 else (sign * hi, sign * lo)
        return ys[-1][0] + x_lo + shift, ys[-1][1] + x_hi + shift, ys

    def slope(ys):
        s = _horner_interval(dcoeffs, *ys[0])
        for y in ys[1:-1]:
            s = _interval_product(*s, *_horner_interval(dcoeffs, *y))
        return s[0] + sign, s[1] + sign

    def curve(lo, hi):
        y, s, c = (lo, hi), (np.ones_like(lo),) * 2, (np.zeros_like(lo),) * 2
        for _ in range(d):
            t = _horner_interval(dcoeffs, *y)
            u = _interval_product(*_horner_interval(ddcoeffs, *y), *_interval_product(*s, *s))
            v = _interval_product(*t, *c)
            c, s = (u[0] + v[0], u[1] + v[1]), _interval_product(*s, *t)
            y = _horner_interval(coeffs, *y)
        return c

    if d * math.log2(len(coeffs) - 1 or 1) > math.log2(BOXES * SPLIT):
        def exact(x, slope=False):  # past degree BOXES * SPLIT an exact value costs 20 ms and more
            return dfunc(x) if slope else func(x)
    return (func, functools.lru_cache(maxsize=None)(exact), dfunc, rounding, enclose, slope,
            curve)


def _sign_change_root(
    f: Callable[[float], float], u: float, v: float, rough: Callable[[float], float]
) -> Optional[float]:
    """A zero of ``f`` at ``u`` or ``v``, or bisected between finite values of opposite sign.

    The bisection runs on ``rough``, a cheaper stand-in for ``f``, and its
    result stands, as the float where ``rough`` changes sign, if ``f``
    changes sign between it and the next float on one side (a zero of ``f``
    there is the result); otherwise it runs again on ``f``.
    """
    fu, fv = f(u), f(v)
    if fu == 0.0 or fv == 0.0:
        return u if fu == 0.0 else v
    if not (math.isfinite(fu) and math.isfinite(fv) and (fu < 0.0) != (fv < 0.0)):
        return None
    c = _bisect(rough, u, v, fu, fv)
    fc = f(c)
    n = math.nextafter(c, v if (fc < 0.0) == (fu < 0.0) else u)
    fn = f(n)
    if fc == 0.0 or fn == 0.0 or (fn < 0.0) != (fc < 0.0):
        return n if fn == 0.0 and fc != 0.0 else c
    return _bisect(f, u, v, fu, fv)


def _runs(lo, hi):
    """Index arrays of the first and the last box of each run of adjacent boxes.

    ``lo`` and ``hi`` hold the ends of disjoint boxes, in ascending order.
    """
    import numpy as np

    breaks = np.flatnonzero(hi[:-1] != lo[1:])
    return np.append(0, breaks + 1), np.append(breaks, lo.size - 1)


def isolate_roots(
    coeffs: Sequence[float], d: int, sign: float, shift: float, lo: float, hi: float, tol: float
) -> list[float]:
    """Real roots of ``F(x) = g^(d)(x) + sign x + shift`` on ``[lo, hi]``, sorted.

    Interval subdivision with a monotonicity test (R. E. Moore, *Interval
    Analysis*, 1966).  With ``t = tol max(1, |x|)``, the first level keeps
    those of ``BOXES`` equal boxes whose Horner enclosure meets ``[-2t, 2t]``.
    Each later level cuts the boxes kept into ``SPLIT`` or more children,
    about ``BOXES`` in all, drops the same way once the enclosure is cut to
    the mean-value forms ``F(e) + F'(X)(X - e)`` from both ends ``e``, and
    finishes each box whose derivative enclosure excludes 0 and whose end
    values lie outside the band: opposite signs hold one root, which
    :func:`_bisect` refines.  Other monotone boxes, boxes narrower than ``t``
    (or ``SPLIT`` ulps) and boxes in the band with a convex or concave ``F``
    form clusters, on each of which ``F'`` has one zero at most;
    :func:`_run_roots` finds the roots of each run of adjacent ones.  A
    sign change next to a run is never in a finished box, whose ends lie
    outside the band.  Every root meets ``|F| <= t``.  A level that leaves
    more than ``BOXES * SPLIT`` boxes is redone with each iterate bound cut
    to its mean-value form; if it still does, each stretch of boxes on
    which ``F`` stays in the band (a root of high multiplicity) becomes one
    cluster.  A ``ValueError`` names a ``hi - lo`` that is not finite, more
    boxes left than that, or an ``F`` that vanishes on ``[lo, hi]``.
    """
    import numpy as np

    if not math.isfinite(hi - lo):
        raise ValueError(f"the interval [{lo!r}, {hi!r}] has no finite size")
    func, exact, dfunc, rounding, enclose, slope, curve = _composition(coeffs, d, sign, shift)
    if len(_strip_trailing_zeros(coeffs)) <= 2 and lo < hi and exact(lo) == 0.0 == exact(hi):
        # F is linear or constant here, so two zeros make it vanish everywhere
        raise ValueError(f"the function vanishes on [{lo!r}, {hi!r}]: the roots are not isolated")
    narrow = max(tol, SPLIT * math.ulp(1.0))  # a cut must leave distinct floats
    finished, clusters = [(np.empty(0),) * 2], [(np.empty(0),) * 2]
    parent_lo, parent_hi, first, tight = np.array([lo]), np.array([hi]), True, False
    with np.errstate(over="ignore", invalid="ignore"):
        while parent_lo.size:
            parts = BOXES if first else max(SPLIT, BOXES // parent_lo.size)
            step = ((parent_hi - parent_lo) / parts)[:, None]
            ends = parent_lo[:, None] + np.arange(parts + 1) * step
            ends[:, -1] = parent_hi
            box_lo, box_hi = ends[:, :-1].ravel(), ends[:, 1:].ravel()
            scale = np.maximum(1.0, np.maximum(np.abs(box_lo), np.abs(box_hi)))
            band = 2.0 * tol * scale
            f_lo, f_hi, iterates = enclose(box_lo, box_hi, tight)
            keep = ~((f_lo > band) | (f_hi < -band))
            if first or not keep.any():  # first-level boxes are too wide to be monotone
                parent_lo, parent_hi, first = box_lo[keep], box_hi[keep], False
                continue
            values = func(ends)
            f_left, f_right = values[:, :-1].ravel(), values[:, 1:].ravel()
            width = box_hi - box_lo
            d_lo, d_hi = slope(iterates)
            # Cut the enclosure to the mean-value forms F(e) + F'(X)(X - e) from both ends.
            t_lo, t_hi = np.minimum(d_lo * width, 0.0), np.maximum(d_hi * width, 0.0)
            f_lo = np.fmax(f_lo, np.fmax(f_left + t_lo, f_right - t_hi))
            f_hi = np.fmin(f_hi, np.fmin(f_left + t_hi, f_right - t_lo))
            keep = ~((f_lo > band) | (f_hi < -band))
            inside = keep & (f_lo >= -band) & (f_hi <= band)
            flat = np.flatnonzero(inside & (d_lo <= 0.0) & (d_hi >= 0.0))
            last = width <= narrow * scale
            if flat.size:  # in the band, a convex or concave F leaves F' one zero at most
                c_lo, c_hi = curve(box_lo[flat], box_hi[flat])
                last[flat[(c_lo > 0.0) | (c_hi < 0.0)]] = True
            # Outside the band an end value's sign is far beyond rounding.
            monotone = keep & ((d_lo > 0.0) | (d_hi < 0.0))
            done = monotone & (np.abs(f_left) > band) & (np.abs(f_right) > band)
            crossing = done & ((f_left < 0.0) != (f_right < 0.0))
            finished.append((box_lo[crossing], box_hi[crossing]))
            last = (last | monotone) & keep & ~done
            clusters.append((box_lo[last], box_hi[last]))
            keep &= ~(done | last)
            if np.count_nonzero(keep) > BOXES * SPLIT and not tight:
                tight = True  # Horner loses a factor per composition: redo, cut tighter
                del finished[-1], clusters[-1]
                continue
            if np.count_nonzero(keep) > BOXES * SPLIT and (keep & inside).any():
                stretch = np.flatnonzero(keep & inside)
                starts, stops = _runs(box_lo[stretch], box_hi[stretch])
                clusters.append((box_lo[stretch[starts]], box_hi[stretch[stops]]))
                keep[stretch] = False
            if np.count_nonzero(keep) > BOXES * SPLIT:
                raise ValueError(f"more than {BOXES * SPLIT} boxes of [{lo!r}, {hi!r}] are left at "
                                 f"width {float(width[keep].max())!r}: the roots are not isolated")
            parent_lo, parent_hi = box_lo[keep], box_hi[keep]
    return _collect_roots(func, exact, dfunc, rounding, finished, clusters, tol)


def _collect_roots(func, exact, dfunc, rounding, finished, clusters, tol: float) -> list[float]:
    """The roots in the finished boxes and in the clusters of :func:`isolate_roots`."""
    import numpy as np

    fin_lo, fin_hi = (np.concatenate(a).tolist() for a in zip(*finished))
    roots = [_bisect(func, u, v, func(u), func(v)) for u, v in zip(fin_lo, fin_hi)]

    def value(x):  # outside the band the float sign is certain
        y = func(x)
        return y if abs(y) > 2.0 * tol * max(1.0, abs(x)) else exact(x)

    def slope_value(x):  # outside its rounding the float sign of F' is certain
        s = dfunc(x)
        return s if abs(s) > rounding(x, slope=True) else exact(x, slope=True)

    c_lo, c_hi = (np.sort(np.concatenate(a)) for a in zip(*clusters))  # disjoint boxes
    for start, stop in zip(*_runs(c_lo, c_hi)) if c_lo.size else ():
        edges = np.append(c_lo[start:stop + 1], c_hi[stop])
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.broadcast_to(dfunc(edges), edges.shape)  # one float for a linear g
            certain = np.broadcast_to(np.abs(s) > rounding(edges, slope=True), edges.shape)
        slopes = {x: v if sure else exact(x, slope=True)
                  for x, v, sure in zip(edges.tolist(), s.tolist(), certain.tolist())}
        roots += _run_roots(slopes, lambda x: slopes[x] if x in slopes else slope_value(x),
                            value, func, dfunc, exact, rounding)
    return sorted(r for r in roots if abs(func(r)) <= tol * max(1.0, abs(r)))


def _run_roots(
    slopes: dict, slope_value, value, func, dfunc, exact, rounding
) -> list[float]:
    """The roots on a run of adjacent cluster boxes; ``slopes`` has ``F'``'s sign at each edge.

    ``F'`` has one zero at most in each box, so the sign changes of ``F'``
    at the edges give every critical point, and ``F`` is monotone between
    neighbouring ones: each exact sign change of ``F`` there is a root.
    Where ``F`` vanishes at a critical point to within its rounding (a
    double root, whose rounded coefficients may have split it in two), the
    sign changes next to it are that one root, reported at the critical
    point of least ``|F|`` among those in a row.  Another critical point is
    a root when no sign change is next to it (a near tangency; the caller
    keeps it if ``|F|`` is within the tolerance).
    """
    edges, signs = list(slopes), list(slopes.values())
    crit = {_sign_change_root(slope_value, a, b, dfunc)
            for a, b, sa, sb in zip(edges, edges[1:], signs, signs[1:])
            if sa == 0.0 or sb == 0.0 or (sa < 0.0) != (sb < 0.0)}
    crit.discard(None)
    points = sorted({edges[0], edges[-1], *crit})
    found = [_sign_change_root(value, a, b, func) for a, b in zip(points, points[1:])] + [None]
    tangent = [p in crit and abs(exact(p)) <= rounding(p) for p in points] + [False]
    roots, group = [], []
    for i, p in enumerate(points):
        if tangent[i]:
            group.append((abs(exact(p)), p))
            continue
        if group:
            roots.append(min(group)[1])
            group = []
        if p in crit and found[i] is None and (i == 0 or found[i - 1] is None):
            roots.append(p)
        if found[i] is not None and not tangent[i + 1]:
            roots.append(found[i])
    if group:
        roots.append(min(group)[1])
    return roots


def root_bound(coeffs: Sequence[float], d: int = 1, sign: float = 0.0, shift: float = 0.0) -> float:
    """A radius ``R`` past which ``F(x) = g^(d)(x) + sign x + shift`` has no root.

    ``g`` is ``coeffs`` without trailing zeros; ``sign`` and ``shift`` are -1,
    0 or 1.  For ``d = 1`` or a linear ``g`` (whose composition is linear),
    ``R`` is the Cauchy bound ``1 + max |c_k| / |c_m|`` of F's coefficients:
    for ``|x| >= R``, ``|F(x)| >= |c_m| |x|^m - max |c_k| (1 + ... + |x|^(m-1)) > 0``.
    Otherwise it is the escape radius ``max(1, (|a_0| + ... + |a_(n-1)| + 3) / |a_n|)``
    (J. Milnor, *Dynamics in One Complex Variable*, 2006): for ``|x| >= R``,
    ``|g(x)| >= 3 |x|^(n-1) >= 2 |x| + 1``, so ``|g^(d)(x)| >= 4 |x| + 3`` and
    ``|F(x)| >= 3 |x| + 2 > |x|``.  ``R`` is the exact bound rounded up to a
    float, ``inf`` past the float range; a constant ``F`` gives 1.
    """
    ints, top = _dyadic(_strip_trailing_zeros(coeffs))
    if d > 1 and len(ints) > 2:
        q = abs(ints[-1])
        p = max(q, sum(abs(c) for c in ints[:-1]) + (3 << top))
    else:  # F's coefficients are f / 2**e
        f, e = ints + [0] * (2 - len(ints)), top
        if d > 1:  # g = b + a x composes to g^(d)(x) = y + s x
            (b, a), y, s = f, 0, 1
            for k in range(d):
                y, s = a * y + (b << (top * k)), a * s
            f, e = [y, s], top * d
        f[0] += int(shift) << e
        f[1] += int(sign) << e
        f = _strip_trailing_zeros(f)
        if len(f) == 1:
            return 1.0
        q = abs(f[-1])
        p = q + max(abs(c) for c in f[:-1])
    try:
        r = p / q  # rounded to nearest
    except OverflowError:
        return math.inf
    num, den = r.as_integer_ratio()
    return r if num * q >= p * den else math.nextafter(r, math.inf)


def find_roots(
    poly_coefficients: Sequence[float],
    interval: tuple[float, float],
    tol: float = 1e-12,
) -> list[float]:
    """All real roots of a polynomial inside an interval, sorted ascending.

    The roots :func:`isolate_roots` finds for the polynomial itself (``d = 1``):
    each meets ``|p(x)| <= tol max(1, |x|)``, and a root of even multiplicity
    is a zero of the derivative.  The interval is clipped to the Cauchy
    bound :func:`root_bound`, outside which no root can live.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo, hi = float(interval[0]), float(interval[1])
    if lo > hi:
        raise ValueError("interval is empty")
    coeffs = _strip_trailing_zeros([float(c) for c in poly_coefficients])
    if len(coeffs) < 2:
        return []
    bound = root_bound(coeffs)
    lo, hi = max(lo, -bound), min(hi, bound)
    return isolate_roots(coeffs, 1, 0.0, 0.0, lo, hi, tol) if lo <= hi else []

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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .encoding import _record_data
from .errors import (
    NoRealFixedPoint,
    NotQuadratic,
    OverflowDiverged,
    UnsupportedDiscriminant,
)
from .roots import _derivative, _horner, _strip_trailing_zeros, find_roots

#: Default magnitude bound beyond which an orbit counts as diverged.
DIVERGENCE_BOUND = 1e12

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
    """The :class:`CharFn` of decoded JSON; ``coefficients`` must be a list of numbers."""
    try:
        coefficients = data["coefficients"]
        orientation = data["orientation"]
    except (TypeError, KeyError) as exc:
        raise ValueError("characteristic function needs 'coefficients' and 'orientation'") from exc
    if not (isinstance(coefficients, list) and all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in coefficients)):
        raise ValueError("'coefficients' must be a list of numbers")
    return CharFn(coefficients, orientation)


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

    to_dict = _record_data


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

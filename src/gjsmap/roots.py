"""Real roots of ``F(x) = g^(d)(x) + sign x + shift``: one division if ``F`` is linear, else
isolated by interval subdivision.

Closure conditions, fixed points but a quadratic's and critical points are all
roots of this form.  :class:`Composition` is one ``F``, with the rounding
bounds (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*, 2002)
its isolator needs; :func:`find_roots` is the ``d = 1`` case.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from ._np import np

#: The least positive float.
_TINY = math.ulp(0.0)
_MAX_DIGITS = 2**14  # past which Composition.exact gives up


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
    if len(coeffs) == 1:
        return np.full_like(lo, coeffs[0]), np.full_like(hi, coeffs[0])
    p, q = coeffs[-1] * lo, coeffs[-1] * hi
    acc_lo, acc_hi = np.minimum(p, q), np.maximum(p, q)
    for c in coeffs[-2:0:-1]:
        acc_lo, acc_hi = _interval_product(acc_lo + c, acc_hi + c, lo, hi)
    return acc_lo + coeffs[0], acc_hi + coeffs[0]


def _decimal_horner(coeffs, lo, hi, down, up):
    """:func:`_horner_interval` in Decimals, for coefficients ``(c_lo, c_hi)``: ``down`` rounds
    each lower bound toward -inf and ``up`` each upper bound toward +inf."""
    acc_lo, acc_hi = coeffs[-1]
    for c_lo, c_hi in coeffs[-2::-1]:
        ends = [(a, b) for a in (acc_lo, acc_hi) for b in (lo, hi)]
        acc_lo = down.add(min(down.multiply(a, b) for a, b in ends), c_lo)
        acc_hi = up.add(max(up.multiply(a, b) for a, b in ends), c_hi)
    return acc_lo, acc_hi


def _dyadic(coeffs: Sequence[float]) -> tuple[list[int], int]:
    """Integers ``n_k`` and ``top`` with ``coeffs[k] == n_k / 2**top`` exactly."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    top = max(den.bit_length() for _, den in ratios) - 1
    return [num << (top + 1 - den.bit_length()) for num, den in ratios], top


def _derivative(coeffs: Sequence[float]) -> list[float]:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0.0]


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


#: Boxes the first level of :meth:`Composition.roots` cuts its interval into,
#: and the children each later level cuts an unresolved box into.
BOXES = 512
SPLIT = 16


def _sign_change_root(comp: Composition, u, v, fu, fv, slope=False) -> Optional[float]:
    """A zero of ``F`` (``F'`` with ``slope``) at ``u`` or ``v``, or bisected between them.

    ``fu`` and ``fv`` are the caller's values at the ends, ``comp.value(x, slope)``
    or ones of the same certain sign.  Between finite ones of opposite sign the
    bisection runs on the float ``comp.func`` (``comp.dfunc``), a cheaper
    stand-in.  Its result stands, as the float where the stand-in changes
    sign, if the value changes sign between it and the next float on one side
    (a zero of the value there is the result); otherwise it runs again on the
    value.
    """
    if fu == 0.0 or fv == 0.0:
        return u if fu == 0.0 else v
    if not (math.isfinite(fu) and math.isfinite(fv) and (fu < 0.0) != (fv < 0.0)):
        return None
    c = _bisect(comp.dfunc if slope else comp.func, u, v, fu, fv)
    fc = comp.value(c, slope)
    n = math.nextafter(c, v if (fc < 0.0) == (fu < 0.0) else u)
    fn = comp.value(n, slope)
    if fc == 0.0 or fn == 0.0 or (fn < 0.0) != (fc < 0.0):
        return n if fn == 0.0 and fc != 0.0 else c
    return _bisect(lambda x: comp.value(x, slope), u, v, fu, fv)


def _runs(lo, hi):
    """Index arrays of the first and the last box of each run of adjacent boxes.

    ``lo`` and ``hi`` hold the ends of disjoint boxes, in ascending order.
    """
    breaks = np.flatnonzero(hi[:-1] != lo[1:])
    return np.append(0, breaks + 1), np.append(breaks, lo.size - 1)


class Composition:
    """``F(x) = g^(d)(x) + sign x + shift``, evaluated, enclosed and solved.

    ``g`` is ``coeffs`` without trailing zeros (they change only values that
    are not finite anyway); ``sign`` is -1, 0 or 1 and ``shift`` an integer.
    ``exact(x)`` is ``F(x)`` rounded once (+0.0 if it is 0, ``±inf`` past the float
    range), so its sign is exact, and ``exact(x, slope=True)`` is ``F'(x)`` so.  Both
    enclose the value from the exact coefficients in outward-rounded decimal intervals of
    24 digits, then twice as many each time, until both ends round to the same float
    (A. Ziv, *ACM TOMS* 17, 1991); past ``_MAX_DIGITS`` digits a ``ValueError`` names ``x``.
    ``dfunc`` is the chain rule ``g'(x) g'(g(x)) ... + sign``.
    ``rounding(x)`` bounds, to first order, the rounding in ``func(x)``
    (Higham's Horner bound, carried along the chain rule), and
    ``rounding(x, slope=True)`` that in ``dfunc(x)``.  ``value(x, slope)`` is
    the one sign rule of the isolator: the float (``func`` or ``dfunc``) where
    it lies farther from 0 than its rounding, so that its sign is exact, and
    ``exact(x, slope)`` elsewhere (a NaN or an infinity included).  ``enclose(lo, hi)``
    bounds ``F`` over boxes in one sweep of the iterate bounds
    ``Y_(k+1) = g(Y_k)``, by the operations of ``func`` in their order, so
    they hold every float ``func`` returns there (``tight`` cuts each iterate
    to its mean-value form, which bounds the exact iterate).  It returns
    ``(F_lo, F_hi, F', F'')``: at ``order`` 0 the last two are ``None``, at 1
    the same sweep bounds ``F'`` by the operations of ``dfunc``, and at 2 also
    ``F''`` by ``(h o g)'' = h''(g) g'^2 + h'(g) g''``.
    """

    def __init__(self, coeffs: Sequence[float], d: int, sign: float, shift: float):
        self.coeffs = coeffs = _strip_trailing_zeros(coeffs)
        self.d, self.sign, self.shift = d, sign, shift
        self.dcoeffs = _derivative(coeffs)
        self.ddcoeffs = _derivative(self.dcoeffs)
        self._lead, self._rest = coeffs[-1], coeffs[-2::-1]
        self._ints, self._top = _dyadic(coeffs)
        self._exact = self._exact_coefficients() if d == 1 or len(coeffs) <= 2 else None
        self._mags, self._dmags = [abs(c) for c in coeffs], [abs(c) for c in self.dcoeffs]
        self._gamma = 2.0 * len(coeffs) * 2.0**-53  # Higham's gamma_2n, to first order
        self._tiny = 2.0 * len(coeffs) * 2.0**-1074  # what underflow may add to a Horner value

    def func(self, x):
        lead, rest, y = self._lead, self._rest, x
        for _ in range(self.d):  # _horner, inlined: this is what bisection evaluates
            acc = lead
            for c in rest:
                acc = acc * y + c
            y = acc
        return y + self.sign * x + self.shift

    def exact(self, x, slope=False):
        from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context,
                             Decimal, InvalidOperation)  # here: start-up needs no decimal
        whole = Context(MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)  # exact: 3 * 0.05 is not rounded
        points = [Decimal(c) for c in self.coeffs]  # Decimal(float) is exact
        dpoints = [whole.multiply(i, c) for i, c in enumerate(points)][1:] or [Decimal(0)]
        coeffs, dcoeffs = ([(c, c) for c in cs] for cs in (points, dpoints))
        prec = 24
        while prec <= _MAX_DIGITS:
            down, up = (Context(prec, r, MIN_EMIN, MAX_EMAX, traps=[InvalidOperation])
                        for r in (ROUND_FLOOR, ROUND_CEILING))
            y, s = (Decimal(x),) * 2, (Decimal(1),) * 2  # g^(k)(x) and the product of g' so far
            try:
                for k in range(self.d):
                    if slope:  # s g'(y) is the Horner value of s t + 0 at t = g'(y)
                        t = _decimal_horner(dcoeffs, *y, down, up)
                        s = _decimal_horner([(Decimal(0),) * 2, s], *t, down, up)
                    if not slope or k < self.d - 1:
                        y = _decimal_horner(coeffs, *y, down, up)
            except InvalidOperation:  # inf * 0: not decided at this precision
                y = s = (Decimal("-Infinity"), Decimal("Infinity"))
            lo, hi = s if slope else y
            for c in map(Decimal, (self.sign,) if slope else (self.sign * x, self.shift)):
                lo, hi = down.add(lo, c), up.add(hi, c)  # exact: sign * x is a float
            if lo == hi or float(lo).hex() == float(hi).hex():
                return float(lo) if lo else 0.0
            prec *= 2
        raise ValueError(f"exact({x!r}, slope={slope}) is not one float in {_MAX_DIGITS} digits")

    def dfunc(self, x):
        out = _horner(self.dcoeffs, x)
        for _ in range(self.d - 1):
            x = _horner(self.coeffs, x)
            out = out * _horner(self.dcoeffs, x)
        return out + self.sign

    def rounding(self, x, slope=False):
        gamma, tiny = self._gamma, self._tiny
        y, err, p, perr = x, 0.0, 1.0, 0.0  # g^(k)(x), its rounding; the product of g' so far
        for _ in range(self.d):
            t = _horner(self.dcoeffs, y)
            if slope:  # t is off by its own rounding and by g'' times that of y
                t_err = gamma * _horner(self._dmags, abs(y)) + abs(_horner(self.ddcoeffs, y)) * err
                p, perr = p * t, abs(t) * perr + abs(p) * (t_err + tiny)
            err = abs(t) * err + gamma * _horner(self._mags, abs(y)) + tiny
            y = _horner(self.coeffs, y)
        if slope:
            return perr + gamma * (abs(p) + 1.0) + tiny
        return err + gamma * (abs(y) + abs(x) + abs(self.shift)) + tiny

    def value(self, x, slope=False):
        y = self.dfunc(x) if slope else self.func(x)
        return y if abs(y) > self.rounding(x, slope) else self.exact(x, slope)

    def enclose(self, lo, hi, tight=False, order=0):
        coeffs, dcoeffs, sign = self.coeffs, self.dcoeffs, self.sign
        y_lo, y_hi, s = lo, hi, None  # Y_k and the product of g'(Y_j), j < k
        if order > 1:  # F'' and its own product of g', from zeros and ones
            c, p = (np.zeros_like(lo),) * 2, (np.ones_like(lo),) * 2
        for _ in range(self.d):
            if order or tight:  # g'(Y_k), once for the cut and the chain rule
                t = _horner_interval(dcoeffs, y_lo, y_hi)
                s = t if s is None else _interval_product(*s, *t)
            if order > 1:
                u = _interval_product(*_horner_interval(self.ddcoeffs, y_lo, y_hi),
                                      *_interval_product(*p, *p))
                v = _interval_product(*t, *c)
                c, p = (u[0] + v[0], u[1] + v[1]), _interval_product(*p, *t)
            g_lo, g_hi = _horner_interval(coeffs, y_lo, y_hi)
            if tight:  # cut to the mean-value form g(m) + g'(Y)(Y - m), m the midpoint
                m = 0.5 * (y_lo + y_hi)
                w = _interval_product(*t, y_lo - m, y_hi - m)
                gm = _horner(coeffs, m)
                g_lo, g_hi = np.fmax(g_lo, gm + w[0]), np.fmin(g_hi, gm + w[1])
            y_lo, y_hi = g_lo, g_hi
        x_lo, x_hi = (sign * lo, sign * hi) if sign >= 0.0 else (sign * hi, sign * lo)
        return (y_lo + x_lo + self.shift, y_hi + x_hi + self.shift,
                (s[0] + sign, s[1] + sign) if order else None, c if order > 1 else None)

    def _exact_coefficients(self) -> list[int]:
        """F's coefficients ``f_k / 2**e`` as the integers ``f_k``, for ``d = 1`` or a linear
        ``g``: ``g = b + a x`` composes to ``g^(d)(x) = y + s x``.  ``__init__`` keeps them as
        ``_exact``, which :meth:`radius` and :meth:`roots` read."""
        f, e = self._ints + [0] * (2 - len(self._ints)), self._top
        if self.d > 1:
            (b, a), y, s = f, 0, 1
            for k in range(self.d):
                y, s = a * y + (b << (e * k)), a * s
            f, e = [y, s], e * self.d
        f[0] += int(self.shift) << e
        f[1] += int(self.sign) << e
        return f

    def radius(self) -> float:
        """A radius ``R`` past which ``F`` has no root.

        ``sign`` and ``shift`` are -1, 0 or 1.  For ``d = 1`` or a linear ``g`` (whose
        composition is linear), ``R`` is the Cauchy bound ``1 + max |c_k| / |c_m|`` of F's
        coefficients: for ``|x| >= R``,
        ``|F(x)| >= |c_m| |x|^m - max |c_k| (1 + ... + |x|^(m-1)) > 0``.  Otherwise it is the
        escape radius ``max(1, (|a_0| + ... + |a_(n-1)| + 3) / |a_n|)`` (J. Milnor, *Dynamics
        in One Complex Variable*, 2006): for ``|x| >= R``, ``|g(x)| >= 3 |x|^(n-1) >= 2 |x| + 1``,
        so ``|g^(d)(x)| >= 4 |x| + 3`` and ``|F(x)| >= 3 |x| + 2 > |x|``.  ``R`` is the exact
        bound rounded up to a float, ``inf`` past the float range; a constant ``F`` gives 1.
        """
        if self._exact is None:
            q = abs(self._ints[-1])
            p = max(q, sum(abs(c) for c in self._ints[:-1]) + (3 << self._top))
        else:
            f = _strip_trailing_zeros(self._exact)
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

    def roots(self, lo: float, hi: float, tol: float) -> list[float]:
        """Real roots of ``F`` on ``[lo, hi]``, sorted.

        A linear ``g`` makes ``F`` linear: its root is the quotient of F's exact integer
        coefficients, rounded once, or none past the float range.  Any other ``F`` goes through
        interval subdivision with a monotonicity test (R. E. Moore, *Interval Analysis*, 1966).
        With ``t = tol max(1, |x|)``, the first level keeps those of ``BOXES`` equal boxes whose
        Horner enclosure meets ``[-2t, 2t]``.  Each later level cuts the boxes kept into
        ``SPLIT`` or more children, about ``BOXES`` in all, drops the same way once the
        enclosure is cut to the mean-value forms ``F(e) + F'(X)(X - e)`` from both ends ``e``,
        and finishes each box whose derivative enclosure excludes 0 and whose end values lie
        outside the band: opposite signs hold one root, which :func:`_bisect` refines.  Other
        monotone boxes, boxes narrower than ``t`` (or ``SPLIT`` ulps) and boxes in the band with
        a convex or concave ``F`` form clusters, on each of which ``F'`` has one zero at most;
        :meth:`_collect` finds the roots of each run of adjacent ones.  A sign change next to a
        run is never in a finished box, whose ends lie outside the band.  Each of these roots
        meets ``|F| <= t``.  A level that leaves more than ``BOXES * SPLIT`` boxes is redone with
        each iterate bound cut to its mean-value form; if it still does, each stretch of boxes
        on which ``F`` stays in the band (a root of high multiplicity) becomes one cluster.  A
        ``ValueError`` names an ``F`` that vanishes on ``[lo, hi]``, and for a nonlinear ``F`` a
        ``hi - lo`` that is not finite or more boxes left than that.
        """
        if len(self.coeffs) <= 2:  # F = (f_0 + f_1 x) / 2**e is linear: its root is one division
            f_0, f_1 = self._exact
            if f_1 == 0:  # a constant F has no root, or vanishes at every point
                if f_0 == 0 and lo < hi:
                    raise ValueError(f"the function vanishes on [{lo!r}, {hi!r}]: the roots are "
                                     "not isolated")
                return [lo] if f_0 == 0 and lo == hi else []
            try:  # an int quotient is rounded once; a root at 0 is 0.0, whatever the sign of f_1
                root = -f_0 / f_1 if f_0 else 0.0
            except OverflowError:  # past the float range
                return []
            return [root] if lo <= root <= hi else []
        if not math.isfinite(hi - lo):
            raise ValueError(f"the interval [{lo!r}, {hi!r}] has no finite size")
        narrow = max(tol, SPLIT * math.ulp(1.0))  # a cut must leave distinct floats
        finished, clusters = [(np.empty(0),) * 4], [(np.empty(0),) * 2]
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
                f_lo, f_hi, slope, _ = self.enclose(box_lo, box_hi, tight, 0 if first else 1)
                keep = ~((f_lo > band) | (f_hi < -band))
                if first or not keep.any():  # first-level boxes are too wide to be monotone
                    parent_lo, parent_hi, first = box_lo[keep], box_hi[keep], False
                    continue
                values = self.func(ends)
                f_left, f_right = values[:, :-1].ravel(), values[:, 1:].ravel()
                width = box_hi - box_lo
                d_lo, d_hi = slope
                # Cut the enclosure to the mean-value forms F(e) + F'(X)(X - e) from both ends.
                t_lo, t_hi = np.minimum(d_lo * width, 0.0), np.maximum(d_hi * width, 0.0)
                f_lo = np.fmax(f_lo, np.fmax(f_left + t_lo, f_right - t_hi))
                f_hi = np.fmin(f_hi, np.fmin(f_left + t_hi, f_right - t_lo))
                keep = ~((f_lo > band) | (f_hi < -band))
                inside = keep & (f_lo >= -band) & (f_hi <= band)
                flat = np.flatnonzero(inside & (d_lo <= 0.0) & (d_hi >= 0.0))
                last = width <= narrow * scale
                if flat.size:  # in the band, a convex or concave F leaves F' one zero at most
                    _, _, _, (c_lo, c_hi) = self.enclose(box_lo[flat], box_hi[flat], tight, 2)
                    last[flat[(c_lo > 0.0) | (c_hi < 0.0)]] = True
                # Outside the band an end float's sign is trusted without its rounding.
                monotone = keep & ((d_lo > 0.0) | (d_hi < 0.0))
                done = monotone & (np.abs(f_left) > band) & (np.abs(f_right) > band)
                crossing = done & ((f_left < 0.0) != (f_right < 0.0))
                finished.append(tuple(a[crossing] for a in (box_lo, box_hi, f_left, f_right)))
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
                    raise ValueError(f"more than {BOXES * SPLIT} boxes of [{lo!r}, {hi!r}] are "
                                     f"left at width {float(width[keep].max())!r}: the roots are "
                                     "not isolated")
                parent_lo, parent_hi = box_lo[keep], box_hi[keep]
        return self._collect(finished, clusters, tol)

    def _collect(self, finished, clusters, tol: float) -> list[float]:
        """The roots in the finished boxes and in the clusters of :meth:`roots`.

        On a run of adjacent cluster boxes ``F'`` has one zero at most in
        each box, so the sign changes of ``F'`` at the edges give every
        critical point, and ``F`` is monotone between neighbouring ones: each
        exact sign change of ``F`` there is a root.  Where ``F`` vanishes at a
        critical point to within its rounding (a double root, whose rounded
        coefficients may have split it in two), the sign changes next to it
        are that one root, reported at the critical point of least ``|F|``
        among those in a row.  Another critical point is a root when no sign
        change is next to it (a near tangency, kept if ``|F|`` is within the
        tolerance).
        """
        func = self.func
        ends = (np.concatenate(a).tolist() for a in zip(*finished))  # lo, hi, F(lo), F(hi)
        roots = [_bisect(func, *box) for box in zip(*ends)]
        c_lo, c_hi = (np.sort(np.concatenate(a)) for a in zip(*clusters))  # disjoint boxes
        for start, stop in zip(*_runs(c_lo, c_hi)) if c_lo.size else ():
            edges = np.append(c_lo[start:stop + 1], c_hi[stop]).tolist()
            signs = [self.value(x, slope=True) for x in edges]
            crit = {_sign_change_root(self, a, b, sa, sb, slope=True)
                    for a, b, sa, sb in zip(edges, edges[1:], signs, signs[1:])}
            crit.discard(None)
            points = sorted({edges[0], edges[-1], *crit})
            values = [self.value(p) for p in points]
            found = [_sign_change_root(self, a, b, fa, fb)
                     for a, b, fa, fb in zip(points, points[1:], values, values[1:])] + [None]
            size = [abs(f) if p in crit else math.inf for p, f in zip(points, values)]
            tangent = [p in crit and a <= self.rounding(p) for p, a in zip(points, size)] + [False]
            group = []
            for i, p in enumerate(points):
                if tangent[i]:
                    group.append((size[i], p))
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
        return sorted(r for r in roots if abs(func(r)) <= tol * max(1.0, abs(r)))


def find_roots(poly_coefficients: Sequence[float]) -> list[float]:
    """The real roots of a polynomial on the whole line, sorted ascending.

    The roots :meth:`Composition.roots` finds for the polynomial itself (``d = 1``) at tolerance
    1e-12 on ``[-R, R]``, ``R`` the Cauchy bound :meth:`Composition.radius` past which no root
    lives: a linear one's is its exact root rounded once, every other meets
    ``|p(x)| <= 1e-12 max(1, |x|)``, and a root of even multiplicity is a zero of the
    derivative.  A constant gives none.
    """
    coeffs = _strip_trailing_zeros([float(c) for c in poly_coefficients])
    if len(coeffs) < 2:
        return []
    poly = Composition(coeffs, 1, 0.0, 0.0)
    radius = poly.radius()
    return poly.roots(-radius, radius, 1e-12)

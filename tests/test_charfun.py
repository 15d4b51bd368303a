import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjsmap import (
    CharFn,
    OneSidedBehavior,
    Orientation,
    RegionLabel,
    Stability,
    charfn_from_dict,
    charfn_to_dict,
    classify_region,
    discriminant,
    evaluate,
    fixed_points,
    invertibility_boundary,
    invertibility_region,
    iterate,
    reflection_pair,
)
from gjsmap.errors import (
    NoRealFixedPoint,
    NotQuadratic,
    OverflowDiverged,
    UnsupportedDiscriminant,
)
from gjsmap.roots import Composition, _bisect, find_roots
from helpers import CUT_QUARTIC_ASCENDING, cut_quartic_roots_oracle, tangent_oscillator

FIG1_FN = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
FIG2_GN = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)
FIG4_FN = CharFn((1.0, 3.0, 1.0), Orientation.OSCILLATOR)


class TestCharFn:
    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            CharFn((1.0,), Orientation.OSCILLATOR)
        with pytest.raises(ValueError):
            CharFn((1.0, 0.0), Orientation.OSCILLATOR)

    def test_quadratic_orientation_sign(self):
        with pytest.raises(ValueError):
            CharFn((0.0, 1.0, -1.0), Orientation.OSCILLATOR)
        with pytest.raises(ValueError):
            CharFn((0.0, 1.0, 1.0), Orientation.WEIGHT)

    def test_coefficient_too_large_for_a_float_is_a_value_error(self):
        # float(10**400) raises OverflowError, which no caller of CharFn expects
        with pytest.raises(ValueError, match="too large for a float"):
            CharFn((1, 10**400), Orientation.OSCILLATOR)

    @pytest.mark.parametrize(
        "coefficients", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0, -math.inf)]
    )
    def test_rejects_non_finite_coefficients(self, coefficients):
        with pytest.raises(ValueError, match="must be finite"):
            CharFn(coefficients, Orientation.OSCILLATOR)

    def test_orientation_accepts_strings(self):
        fn = CharFn((1.0, 1.0), "oscillator")
        assert fn.orientation is Orientation.OSCILLATOR

    def test_json_round_trip(self):
        data = charfn_to_dict(FIG1_FN)
        assert data == {
            "coefficients": [1.225, -2.5, 2.5],
            "orientation": "oscillator",
        }
        again = charfn_from_dict(json.loads(json.dumps(data)))
        assert again == FIG1_FN


class TestEvaluate:
    def test_fig1_fixed_point_value(self):
        assert evaluate(FIG1_FN, 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_heisenberg_limit(self):
        fn = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
        assert evaluate(fn, 0.0) == 1.0

    def test_hand_evaluated_point(self):
        # 2.5 * 0.56^2 - 2.5 * 0.56 + 1.225 = 0.784 - 1.4 + 1.225
        assert evaluate(FIG1_FN, 0.56) == pytest.approx(0.609, rel=1e-12)

    def test_array_input_matches_scalar_bitwise(self):
        xs = np.linspace(-2.0, 2.0, 17)
        ys = evaluate(FIG4_FN, xs)
        for x, y in zip(xs, ys):
            assert evaluate(FIG4_FN, float(x)) == y


class TestIterate:
    def test_fixed_point_stays_put(self):
        gn = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)
        assert iterate(gn, 1.0, 5) == [1.0] * 6

    def test_zero_iterations(self):
        assert iterate(FIG1_FN, 0.56, 0) == [0.56]

    def test_monotone_approach_to_tangent_point(self):
        xs = iterate(FIG1_FN, 0.56, 400)
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(x < 0.7 for x in xs)
        assert xs[-1] > 0.69

    def test_divergence_raises_with_partial_orbit(self):
        with pytest.raises(OverflowDiverged) as err:
            iterate(FIG1_FN, 0.85, 100, bound=1e6)
        orbit = err.value.iterates
        assert orbit[0] == 0.85
        assert abs(orbit[-1]) > 1e6
        assert all(abs(x) <= 1e6 for x in orbit[:-1])
        for copied in (copy.copy(err.value), pickle.loads(pickle.dumps(err.value))):
            assert (str(copied), copied.iterates) == (str(err.value), orbit)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterate(FIG1_FN, 0.5, -1)

    @given(
        coeffs=st.lists(
            st.floats(-1.5, 1.5, allow_nan=False), min_size=2, max_size=4
        ).filter(lambda c: any(v != 0.0 for v in c[1:])),
        x0=st.floats(-2.0, 2.0),
        m1=st.integers(0, 6),
        m2=st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_iteration_splits_bit_for_bit(self, coeffs, x0, m1, m2):
        try:
            fn = CharFn(tuple(coeffs), Orientation.OSCILLATOR)
        except ValueError:
            return  # downward quadratic drawn for the oscillator orientation
        try:
            whole = iterate(fn, x0, m1 + m2, bound=1e100)
            first = iterate(fn, x0, m1, bound=1e100)
            second = iterate(fn, first[-1], m2, bound=1e100)
        except OverflowDiverged:
            return
        assert whole[-1] == second[-1]


class TestFixedPoints:
    def test_fig1_tangent_point(self):
        (fp,) = fixed_points(FIG1_FN)
        assert fp.location == pytest.approx(0.7, abs=1e-9)
        assert fp.stability is Stability.NEUTRAL_TANGENT
        assert fp.one_sided_behavior is OneSidedBehavior.CONVERGES_FROM_BELOW
        assert fp.multiplier == pytest.approx(1.0, abs=1e-9)

    def test_fig2_tangent_point(self):
        (fp,) = fixed_points(FIG2_GN)
        assert fp.location == pytest.approx(1.0, abs=1e-9)
        assert fp.one_sided_behavior is OneSidedBehavior.CONVERGES_FROM_ABOVE

    def test_fig4_tangent_point(self):
        (fp,) = fixed_points(FIG4_FN)
        assert fp.location == pytest.approx(-1.0, abs=1e-9)

    def test_heisenberg_has_none(self):
        with pytest.raises(NoRealFixedPoint):
            fixed_points(CharFn((1.0, 1.0), Orientation.OSCILLATOR))

    def test_two_simple_points(self):
        # f(x) = x^2: fixed points 0 (attracting) and 1 (repelling)
        fn = CharFn((0.0, 0.0, 1.0), Orientation.OSCILLATOR)
        low, high = fixed_points(fn)
        assert low.location == pytest.approx(0.0, abs=1e-12)
        assert low.stability is Stability.ATTRACTING
        assert high.location == pytest.approx(1.0, abs=1e-12)
        assert high.stability is Stability.REPELLING

    def test_linear_attracting(self):
        fn = CharFn((1.0, 0.5), Orientation.OSCILLATOR)
        (fp,) = fixed_points(fn)
        assert fp.location == pytest.approx(2.0, rel=1e-12)
        assert fp.stability is Stability.ATTRACTING

    def test_identity_fixes_every_point(self):
        with pytest.raises(ValueError, match="every point is a fixed point"):
            fixed_points(CharFn((0.0, 1.0), Orientation.OSCILLATOR))

    def test_quartic_without_real_fixed_point(self):
        # fn(x) - x = x^4 + 1
        with pytest.raises(NoRealFixedPoint, match="no real root"):
            fixed_points(CharFn((1.0, 1.0, 0.0, 0.0, 1.0), Orientation.OSCILLATOR))

    def test_cubic_fixed_points(self):
        # f(x) = x^3: fixed points -1, 0, 1
        fn = CharFn((0.0, 0.0, 0.0, 1.0), Orientation.OSCILLATOR)
        locs = [fp.location for fp in fixed_points(fn)]
        assert locs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)

    def test_cubic_with_a_root_at_its_cauchy_bound(self):
        # fn(x) - x = 1e-20 x^3 + x^2 + 0.5, whose real root is about -1e20
        (fp,) = fixed_points(CharFn((0.5, 1.0, 1.0, 1e-20), Orientation.OSCILLATOR))
        assert fp.location == pytest.approx(-1e20, rel=1e-15)

    def test_cubic_tangency_diverges_both_sides(self):
        # f(x) = x + (x - 1)^3 crosses the diagonal transversally with slope 1
        fn = CharFn((-1.0, 4.0, -3.0, 1.0), Orientation.OSCILLATOR)
        (fp,) = fixed_points(fn)
        assert fp.location == pytest.approx(1.0, abs=1e-9)
        assert fp.stability is Stability.NEUTRAL_TANGENT
        assert fp.one_sided_behavior is OneSidedBehavior.DIVERGES_BOTH_SIDES

    def test_cubic_tangency_attracting_both_sides(self):
        # f(x) = x - (x - 1)^3 pulls both sides in despite the unit slope
        fn = CharFn((1.0, -2.0, 3.0, -1.0), Orientation.OSCILLATOR)
        (fp,) = fixed_points(fn)
        assert fp.location == pytest.approx(1.0, abs=1e-9)
        assert fp.one_sided_behavior is OneSidedBehavior.ATTRACTING

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_residual_bound(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fn = tangent_oscillator(rng)
        for fp in fixed_points(fn):
            residual = abs(evaluate(fn, fp.location) - fp.location)
            assert residual <= 1e-12 * max(1.0, abs(fp.location))


class TestDiscriminantAndBoundary:
    def test_fig_values(self):
        assert discriminant(FIG1_FN) == pytest.approx(0.0, abs=1e-9)
        assert discriminant(FIG2_GN) == pytest.approx(0.0, abs=1e-9)
        assert invertibility_boundary(FIG1_FN) == pytest.approx(0.5, abs=1e-12)
        assert invertibility_boundary(FIG2_GN) == pytest.approx(1.5, abs=1e-12)

    def test_derived_discriminant(self):
        fn = CharFn((1.0, 1.0, 1.0), Orientation.OSCILLATOR)
        assert discriminant(fn) == pytest.approx(-4.0, rel=1e-15)

    def test_symmetric_vertex(self):
        fn = CharFn((0.0, 0.0, 1.0), Orientation.OSCILLATOR)
        assert invertibility_boundary(fn) == 0.0

    def test_non_quadratic_rejected(self):
        linear = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
        with pytest.raises(NotQuadratic):
            discriminant(linear)
        with pytest.raises(NotQuadratic):
            invertibility_boundary(linear)

    def test_region_interval(self):
        lo, hi = invertibility_region(FIG1_FN)
        assert (lo, hi) == (0.5, math.inf)
        lo, hi = invertibility_region(FIG2_GN)
        assert (lo, hi) == (-math.inf, 1.5)
        assert invertibility_region(CharFn((1.0, 1.0), Orientation.OSCILLATOR)) == (
            -math.inf,
            math.inf,
        )

    @pytest.mark.parametrize(
        "coefficients,orientation,region",
        [
            ((0.0, -3.0, 0.0, 1.0), Orientation.OSCILLATOR, (1.0, math.inf)),
            ((0.0, 0.5, 0.0, 1.0), Orientation.OSCILLATOR, (-math.inf, math.inf)),
            ((0.0, 3.0, 0.0, -1.0), Orientation.WEIGHT, (-math.inf, -1.0)),
        ],
    )
    def test_region_cubic(self, coefficients, orientation, region):
        # bounded by the critical point nearest the unbounded side, if any
        lo, hi = invertibility_region(CharFn(coefficients, orientation))
        assert (lo, hi) == pytest.approx(region, abs=1e-12)


class TestClassifyRegion:
    @pytest.mark.parametrize(
        "x0,label",
        [
            (0.56, RegionLabel.CONVERGENT_INTERVAL),
            (0.85, RegionLabel.DIVERGENT_INTERVAL),
            (0.7, RegionLabel.ON_FIXED_POINT),
            (0.5, RegionLabel.OUTSIDE_INVERTIBLE_REGION),
            (0.2, RegionLabel.OUTSIDE_INVERTIBLE_REGION),
        ],
    )
    def test_oscillator_regions(self, x0, label):
        assert classify_region(FIG1_FN, x0) is label

    @pytest.mark.parametrize(
        "x0,label",
        [
            (-0.05, RegionLabel.DIVERGENT_INTERVAL),
            (1.2, RegionLabel.CONVERGENT_INTERVAL),
            (1.0, RegionLabel.ON_FIXED_POINT),
            (1.5, RegionLabel.OUTSIDE_INVERTIBLE_REGION),
            (2.0, RegionLabel.OUTSIDE_INVERTIBLE_REGION),
        ],
    )
    def test_weight_regions(self, x0, label):
        assert classify_region(FIG2_GN, x0) is label

    def test_nonzero_discriminant_rejected(self):
        fn = CharFn((1.0, 1.0, 1.0), Orientation.OSCILLATOR)
        with pytest.raises(UnsupportedDiscriminant):
            classify_region(fn, 0.3)

    @given(
        x0=st.floats(-3.0, 3.0, allow_nan=False),
        extra=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_trailing_zeros_do_not_change_labels(self, x0, extra):
        padded = CharFn(
            FIG1_FN.coefficients + (0.0,) * extra, Orientation.OSCILLATOR
        )
        assert classify_region(padded, x0) is classify_region(FIG1_FN, x0)


class TestMonotoneOrbits:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tangent_oscillator_orbits(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fn = tangent_oscillator(rng)
        t = fn.coefficients[2]
        boundary = invertibility_boundary(fn)
        star = fixed_points(fn)[0].location
        inside = boundary + rng.uniform(0.05, 0.95) / (2.0 * t)
        xs = iterate(fn, inside, 50)
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert all(x < star for x in xs)
        outside = star + rng.uniform(0.1, 2.0)
        try:
            ys = iterate(fn, outside, 200)
            assert all(a < b for a, b in zip(ys, ys[1:]))
        except OverflowDiverged:
            pass  # escaped past the bound, which is the point


class TestReflectionPairing:
    def test_pair_of_fig4(self):
        gn = reflection_pair(FIG4_FN)
        assert gn.coefficients == (-1.0, 3.0, -1.0)
        assert gn.orientation is Orientation.WEIGHT

    @given(
        coeffs=st.lists(
            st.floats(-3.0, 3.0, allow_nan=False), min_size=2, max_size=5
        ).filter(lambda c: any(v != 0.0 for v in c[1:])),
    )
    @settings(max_examples=120, deadline=None)
    def test_reflection_identity_exact_on_grid(self, coeffs):
        try:
            fn = CharFn(tuple(coeffs), Orientation.OSCILLATOR)
            gn = reflection_pair(fn)
        except ValueError:
            return  # downward quadratic drawn for the oscillator orientation
        for x in np.linspace(-4.0, 4.0, 41):
            assert evaluate(gn, -float(x)) == -evaluate(fn, float(x))


def polynomial_roots(poly, lo, hi, tol=1e-12):
    """``Composition.roots`` of the polynomial itself (``d = 1``) on ``[lo, hi]``."""
    return Composition(poly, 1, 0.0, 0.0).roots(lo, hi, tol)


class TestFindRoots:
    def test_symmetric_quadratic(self):
        roots = polynomial_roots([-1.0, 0.0, 1.0], -2.0, 2.0)
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_double_root_reported_once(self):
        # (x + 1)^2, the fixed-point polynomial of x^2 + 3x + 1
        roots = polynomial_roots([1.0, 2.0, 1.0], -10.0, 10.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-1.0, abs=1e-9)

    def test_cut_quartic_roots(self):
        oracle = cut_quartic_roots_oracle()
        roots = polynomial_roots(CUT_QUARTIC_ASCENDING, -10.0, 10.0)
        assert len(roots) == len(oracle) == 2
        assert roots == pytest.approx(oracle, abs=1e-9)
        assert roots[0] == pytest.approx(0.33479, abs=1e-4)
        assert roots[1] == pytest.approx(2.9228, abs=1e-3)

    def test_interval_filtering(self):
        assert polynomial_roots([-1.0, 0.0, 1.0], 0.0, 2.0) == pytest.approx([1.0])

    def test_no_roots(self):
        assert polynomial_roots([1.0, 0.0, 1.0], -5.0, 5.0) == []

    def test_half_infinite_interval(self):
        # [0, inf) ends at the Cauchy bound, past which no root lives
        poly = Composition([-1.0, 0.0, 1.0], 1, 0.0, 0.0)
        roots = poly.roots(0.0, poly.radius(), 1e-12)
        assert roots == pytest.approx([1.0], abs=1e-12)

    def test_quintic_with_cluster(self):
        # roots at -2, -1, 0, 1, 2: x^5 - 5x^3 + 4x
        roots = polynomial_roots([0.0, 4.0, 0.0, -5.0, 0.0, 1.0], -3.0, 3.0)
        assert roots == pytest.approx([-2.0, -1.0, 0.0, 1.0, 2.0], abs=1e-10)

    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    def test_root_of_high_multiplicity(self, tol):
        # (x - 1)^4 and (x - 1)^5 stay inside the tolerance on a stretch ~1e-3 wide.
        assert polynomial_roots([1.0, -4.0, 6.0, -4.0, 1.0], -4.0, 4.0, tol) == [1.0]
        assert polynomial_roots([-1.0, 5.0, -10.0, 10.0, -5.0, 1.0], -4.0, 4.0, tol) == [1.0]

    def test_three_roots_between_two_derivative_zeros(self):
        # 1e-6 x - x^3 stays below 2e-9 on [-1.5e-3, 1.5e-3], which holds its
        # three roots and both zeros of the derivative (+-5.8e-4).
        roots = polynomial_roots([0.0, 1e-6, 0.0, -1.0], -1.0, 1.0)
        assert roots == pytest.approx([-1e-3, 0.0, 1e-3], abs=1e-12)

    def test_wide_bracket_is_bisected_to_its_root(self):
        # 2x - 1e-100 x^2 on its Cauchy interval, about [-2e100, 2e100]: 0 lies
        # some 1,400 value halvings below the bracket's width.
        assert find_roots([0.0, 2.0, -1e-100]) == [0.0, 2e100]
        # -x^2 + 2x on [0.5 - 1e150, 0.5 + 1e150]
        roots = Composition((-1.0, 1.0, -1.0), 1, 1.0, 1.0).roots(0.5 - 1e150, 0.5 + 1e150, 1e-9)
        assert roots == [0.0, 2.0]

    def test_interval_past_half_the_float_range(self):
        # x^2 - 1e308 has the Cauchy bound 1e308, so hi - lo overflows; each half of
        # [-R, R] is cut into the first-level boxes instead
        roots = find_roots([-1e308, 0.0, 1.0])
        assert roots == pytest.approx([-1e154, 1e154], rel=1e-15)
        exact = Composition([-1e308, 0.0, 1.0], 1, 0.0, 0.0).exact
        for r in roots:  # F changes sign exactly between r and a neighbouring float
            below, at, above = (exact(x) < 0.0 for x in (math.nextafter(r, -math.inf), r,
                                                          math.nextafter(r, math.inf)))
            assert exact(r) == 0.0 or below != at or at != above, r
        # the cubic's fixed-point polynomial x^3 - 1e308 gets past the interval too
        try:
            fixed_points(CharFn((-1e308, 1.0, 0.0, 1.0), Orientation.OSCILLATOR))
        except NoRealFixedPoint:
            pass  # its root's nearest floats miss the residual test |F| <= 1e-12 |x|

    def test_bisection_halves_by_value_within_a_factor_of_two(self):
        # so an ordinary bracket costs what plain bisection costs; a wider one
        # is split at 0 and at geometric means first, about 65 splits at most.
        def points(u, v, root):
            seen = []
            _bisect(lambda x: seen.append(x) or x - root, u, v, u - root, v - root)
            return seen

        u, v, plain = 1.0, 1.75, []
        while u < 0.5 * (u + v) < v:
            m = 0.5 * (u + v)
            plain.append(m)
            u, v = (m, v) if m < 1.3 else (u, m)
        assert points(1.0, 1.75, 1.3) == plain
        for u, v, root in ((-1e300, 1.1e300, 0.0), (-1e300, 1.1e300, 0.3), (1e-300, 1e300, 7.0),
                           (-3.0, 5.0, 1e-200)):
            seen = points(u, v, root)
            assert seen[-1] == root and len(seen) <= 65

    @pytest.mark.parametrize("poly, interval", [
        ([0.0, 0.0, 1.0], (-1.0, 0.0)),
        ([1.0, -2.0, 1.0], (-3.0, 1.0)),
        ([0.0, 0.0, -1.0, 1.0], (-1.0, 0.0)),
    ])
    def test_double_root_at_the_right_end(self, poly, interval):
        # the last critical point of the last cluster is a tangency
        assert polynomial_roots(poly, *interval) == [interval[1]]

    @pytest.mark.parametrize("coefficients", [[3.0], [3.0, 0.0], [0.0]])
    def test_constant_has_no_roots(self, coefficients):
        assert find_roots(coefficients) == []

    @pytest.mark.parametrize("lead, want", [(1.0, math.inf), (-1.0, -math.inf)])
    def test_exact_value_past_the_float_range_is_infinite(self, lead, want):
        exact = Composition([0.0, 0.0, lead], 1, 0.0, 0.0).exact
        assert exact(1e200) == want

    def test_cauchy_bound_is_rounded_up(self):
        # 1 + 2e20 rounds down to 2e20, the root of 2x - 1e-20 x^2.
        assert find_roots([0.0, 2.0, -1e-20]) == pytest.approx(
            [0.0, 2e20], abs=1e-300, rel=1e-15)
        radius = Composition([0.0, 2.0, -1e-20], 1, 0.0, 0.0).radius()
        assert radius == math.nextafter(2e20, math.inf)

    def test_quintic_region_ends_at_its_quadruple_critical_point(self):
        # g = -(x - 1)^5, so g' = -5 (x - 1)^4 vanishes only at 1
        fn = CharFn((1.0, -5.0, 10.0, -10.0, 5.0, -1.0), Orientation.WEIGHT)
        assert invertibility_region(fn) == (-math.inf, 1.0)

import functools
import hashlib
import json
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from gjsmap import (
    CharFn,
    Orientation,
    RepKind,
    build_gsl2,
    casimir_gsl2,
    cut_condition_solve,
    gauss_numbers,
    gsl2_to_dict,
    matrix_J0,
    matrix_Jminus,
    matrix_Jplus,
    periodic_condition_solve,
    verify_gsl2_relations,
)
from gjsmap.errors import (
    CutResidualTooLarge,
    DescentViolation,
    InvalidHighestWeight,
    NegativeLadderSquare,
    PeriodicResidualTooLarge,
)
from gjsmap.gsl2 import _CLOSURE, CUT_SOLVE_TOL, _closure_roots
from gjsmap.roots import BOXES, Composition, _derivative, _horner, find_roots
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    Q_PARAMETER,
    cut_quartic_roots_oracle,
    dense_gsl2,
    dyadic_closure,
    dyadic_closure_ratio,
    exact_closure,
    exact_closure_slope,
    identical,
    q_cut_root,
    scaled_tol,
    random_gsl2_rep,
    textbook_j0,
    textbook_jplus,
)

SL2 = CharFn((-1.0, 1.0), Orientation.WEIGHT)  # g(x) = x - 1
FIG2_GN = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)
ROUNDED_ROOT = 0.33479  # the cut root quoted to five digits


def exact_cut_root() -> float:
    return cut_condition_solve(FIG2_GN, 2).included[0]


class TestBuild:
    def test_standard_spin_one(self):
        rep = build_gsl2(SL2, 1.0, 3, RepKind.FINITE_CUT)
        assert rep.weights.tolist() == [1.0, 0.0, -1.0]
        assert rep.ladder_sq.tolist() == [2.0, 2.0]
        assert rep.cut_residual == 0.0

    def test_cut_with_a_vanishing_interior_ladder_square_rejected(self):
        # spin one closes after three states; a loose cut_tol lets a fourth in
        # (closure defect -1), past the vanishing ladder square 1*2 - (-2)(-1)
        with pytest.raises(ValueError, match="interior ladder square vanishes"):
            build_gsl2(SL2, 1.0, 4, RepKind.FINITE_CUT, cut_tol=1.0)

    def test_five_digit_root_accepted_loosely(self):
        rep = build_gsl2(FIG2_GN, ROUNDED_ROOT, 2, RepKind.FINITE_CUT)
        assert rep.weights[0] == ROUNDED_ROOT
        assert rep.weights[1] == pytest.approx(-0.1077143441, rel=1e-9)
        assert abs(rep.cut_residual) == pytest.approx(4.6e-5, rel=0.05)
        assert abs(rep.cut_residual) <= 1e-4

    def test_exact_root_meets_tight_tolerance(self):
        root = exact_cut_root()
        rep = build_gsl2(FIG2_GN, root, 2, RepKind.FINITE_CUT, cut_tol=1e-9)
        assert abs(rep.cut_residual) <= 1e-9

    def test_cut_residual_gate(self):
        with pytest.raises(CutResidualTooLarge):
            build_gsl2(FIG2_GN, 0.4, 2, RepKind.FINITE_CUT)

    def test_one_dimensional_periodic_at_fixed_point(self):
        rep = build_gsl2(FIG2_GN, 1.0, 1, RepKind.FINITE_PERIODIC)
        assert rep.weights.tolist() == [1.0]
        assert rep.ladder_sq.tolist() == []
        assert rep.next_weight == 1.0

    def test_periodic_residual_gate(self):
        with pytest.raises(PeriodicResidualTooLarge):
            build_gsl2(FIG2_GN, 1.2, 1, RepKind.FINITE_PERIODIC)

    def test_highest_weight_outside_region(self):
        with pytest.raises(InvalidHighestWeight):
            build_gsl2(FIG2_GN, 1.5, 2, RepKind.TRUNCATED_INFINITE)
        with pytest.raises(InvalidHighestWeight):
            build_gsl2(FIG2_GN, 2.0, 2, RepKind.TRUNCATED_INFINITE)

    def test_descent_violation(self):
        # g(x) = x + 1 ascends instead of descending
        rising = CharFn((1.0, 1.0), Orientation.WEIGHT)
        with pytest.raises(DescentViolation):
            build_gsl2(rising, 0.0, 3, RepKind.TRUNCATED_INFINITE)

    def test_negative_ladder_square(self):
        # divergent-side start drops fast enough to break unitarity
        with pytest.raises(NegativeLadderSquare):
            build_gsl2(FIG2_GN, -0.05, 2, RepKind.TRUNCATED_INFINITE)

    def test_oscillator_function_rejected(self):
        with pytest.raises(ValueError):
            build_gsl2(CharFn((1.0, 1.0), Orientation.OSCILLATOR), 0.0, 2,
                       RepKind.TRUNCATED_INFINITE)

    def test_ladder_closed_forms_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rep = random_gsl2_rep(rng)
            a = rep.alpha_j
            for m in range(rep.dim - 1):
                w = rep.weights[m + 1]
                product_form = (a - w) * (a + w + 1.0)
                assert rep.ladder_sq[m] == pytest.approx(
                    product_form, rel=1e-12, abs=1e-12
                )

    def test_ladder_gauss_form(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            rep = random_gsl2_rep(rng)
            q2 = rep.weights[1] - rep.weights[0] if rep.dim > 1 else 0.0
            numbers = gauss_numbers(rep.gn, rep.alpha_j, rep.dim)
            for m in range(rep.dim - 1):
                q = q2 * numbers[m + 1]
                gauss_form = -q * (2.0 * rep.alpha_j + 1.0 + q)
                assert rep.ladder_sq[m] == pytest.approx(
                    gauss_form, rel=1e-12, abs=1e-12
                )

    def test_finite_cut_closure(self):
        root = exact_cut_root()
        rep = build_gsl2(FIG2_GN, root, 2, RepKind.FINITE_CUT, cut_tol=1e-9)
        a, w = rep.alpha_j, rep.next_weight
        closing_sq = a * (a + 1.0) - w * (w + 1.0)
        assert abs(closing_sq) <= 1e-9


class TestMatrices:
    def test_standard_spin_one_matrices(self):
        rep = build_gsl2(SL2, 1.0, 3, RepKind.FINITE_CUT)
        assert np.array_equal(matrix_J0(rep).entries, np.diag([1.0, 0.0, -1.0]))
        jp = matrix_Jplus(rep).entries
        s2 = math.sqrt(2.0)
        assert jp[0, 1] == pytest.approx(s2, rel=1e-15)
        assert jp[1, 2] == pytest.approx(s2, rel=1e-15)
        assert np.all(jp[:, 0] == 0.0)
        assert np.array_equal(matrix_Jminus(rep).entries, jp.T)

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_textbook_limit(self, two_j):
        j = two_j / 2.0
        rep = build_gsl2(SL2, j, two_j + 1, RepKind.FINITE_CUT)
        assert np.max(np.abs(matrix_J0(rep).entries - textbook_j0(two_j))) <= 1e-12
        assert (
            np.max(np.abs(matrix_Jplus(rep).entries - textbook_jplus(two_j))) <= 1e-12
        )

    def test_jplus_is_entrywise_sqrt(self):
        rep = random_gsl2_rep(np.random.default_rng(3))
        expect = np.zeros((rep.dim, rep.dim))
        for m in range(1, rep.dim):
            expect[m - 1, m] = math.sqrt(rep.ladder_sq[m - 1])
        assert np.array_equal(matrix_Jplus(rep).entries, expect)

    def test_cut_two_state_raising_entry(self):
        root = exact_cut_root()
        rep = build_gsl2(FIG2_GN, root, 2, RepKind.FINITE_CUT, cut_tol=1e-9)
        a, w1 = root, rep.weights[1]
        expect = math.sqrt(a * (a + 1.0) - w1 * (w1 + 1.0))
        assert matrix_Jplus(rep).entries[0, 1] == pytest.approx(expect, rel=1e-14)


class TestDenseReference:
    """The diagonal forms equal the dense matmul formulas bit for bit."""

    @staticmethod
    def reps():
        rng = np.random.default_rng(53)
        flip = CharFn((0.0, -1.0), Orientation.WEIGHT)
        yield build_gsl2(SL2, 1.0, 1, RepKind.TRUNCATED_INFINITE)
        yield build_gsl2(flip, 0.5, 2, RepKind.FINITE_PERIODIC)
        yield build_gsl2(FIG2_GN, exact_cut_root(), 2, RepKind.FINITE_CUT, cut_tol=1e-9)
        for two_j in range(1, 9):
            yield build_gsl2(SL2, two_j / 2.0, two_j + 1, RepKind.FINITE_CUT)
        for _ in range(30):
            rep = random_gsl2_rep(rng)
            yield rep
            i = int(rng.integers(0, rep.dim - 1))
            weights, ladder_sq = list(rep.weights), list(rep.ladder_sq)
            weights[i] += rng.normal()
            ladder_sq[i] += abs(rng.normal())
            yield replace(rep, weights=np.array(weights))
            yield replace(rep, ladder_sq=np.array(ladder_sq))

    def test_matrices_casimir_and_residuals(self):
        for rep in self.reps():
            j0, jp, casimir, residuals = dense_gsl2(rep)
            assert identical(matrix_J0(rep).entries, j0)
            assert identical(matrix_Jplus(rep).entries, jp)
            assert identical(matrix_Jminus(rep).entries, jp.T)
            assert identical(casimir_gsl2(rep).entries, casimir)
            if rep.dim >= 2:
                assert tuple(verify_gsl2_relations(rep).residuals.values()) == residuals


class TestCasimir:
    def test_standard_spin_one(self):
        rep = build_gsl2(SL2, 1.0, 3, RepKind.FINITE_CUT)
        assert np.allclose(casimir_gsl2(rep).entries, 2.0 * np.eye(3), atol=1e-14)

    def test_cut_two_state_value(self):
        root = exact_cut_root()
        rep = build_gsl2(FIG2_GN, root, 2, RepKind.FINITE_CUT, cut_tol=1e-9)
        expect = root * (root + 1.0)
        c = casimir_gsl2(rep).entries
        assert np.diag(c) == pytest.approx([expect] * 2, rel=1e-10)
        assert expect == pytest.approx(0.44687, abs=5e-5)

    def test_rounded_root_value_close(self):
        rep = build_gsl2(FIG2_GN, ROUNDED_ROOT, 2, RepKind.FINITE_CUT)
        c = casimir_gsl2(rep).entries
        assert np.diag(c) == pytest.approx([0.33479 * 1.33479] * 2, abs=1e-4)

    def test_one_dimensional_scalar(self):
        rep = build_gsl2(FIG2_GN, 1.0, 1, RepKind.FINITE_PERIODIC)
        assert casimir_gsl2(rep).entries[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_truncated_constancy_on_interior(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            rep = random_gsl2_rep(rng)
            c = casimir_gsl2(rep).entries
            expect = rep.alpha_j * (rep.alpha_j + 1.0)
            interior = np.diag(c)[: rep.dim - 1]
            assert interior == pytest.approx([expect] * (rep.dim - 1), rel=1e-10)
            off = c - np.diag(np.diag(c))
            assert np.max(np.abs(off)) <= 1e-12


class TestRelations:
    def test_standard_spin_one(self):
        rep = build_gsl2(SL2, 1.0, 3, RepKind.FINITE_CUT)
        report = verify_gsl2_relations(rep, tol=1e-12)
        assert report.passed

    def test_single_state_rejected(self):
        with pytest.raises(ValueError, match="need dim >= 2"):
            verify_gsl2_relations(build_gsl2(SL2, 0.0, 1, RepKind.FINITE_CUT))

    def test_cut_rep_with_rounded_root(self):
        # the 5-digit root closes the ladder only to ~its cut residual, and
        # that defect lands on the last commutator column
        rep = build_gsl2(FIG2_GN, ROUNDED_ROOT, 2, RepKind.FINITE_CUT)
        report = verify_gsl2_relations(rep, tol=1e-4)
        assert report.passed
        assert report.max_residual == pytest.approx(abs(rep.cut_residual), rel=1.0)

    def test_cut_rep_with_exact_root(self):
        rep = build_gsl2(FIG2_GN, exact_cut_root(), 2, RepKind.FINITE_CUT, cut_tol=1e-9)
        report = verify_gsl2_relations(rep, tol=1e-12)
        assert report.passed

    def test_randomized_suite(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rep = random_gsl2_rep(rng)
            assert verify_gsl2_relations(rep, tol=1e-10).passed

    def test_corrupted_weight_fails(self):
        from dataclasses import replace

        rep = build_gsl2(SL2, 1.5, 4, RepKind.FINITE_CUT)
        bad = replace(rep, weights=np.r_[rep.weights[0], rep.weights[1] + 0.01, rep.weights[2:]])
        assert not verify_gsl2_relations(bad, tol=1e-10).passed


class TestCutSolve:
    def test_two_state_roots_match_oracle(self):
        oracle = cut_quartic_roots_oracle()
        sols = cut_condition_solve(FIG2_GN, 2)
        assert len(sols.included) == 1
        assert len(sols.excluded) == 1
        assert sols.included[0] == pytest.approx(oracle[0], abs=1e-9)
        assert sols.excluded[0] == pytest.approx(oracle[1], abs=1e-9)
        assert sols.included[0] == pytest.approx(0.33479, abs=1e-4)
        assert sols.excluded[0] == pytest.approx(2.9228, abs=1e-3)

    def test_included_root_residual(self):
        root = cut_condition_solve(FIG2_GN, 2).included[0]
        g2 = FIG2_GN(FIG2_GN(root))
        assert abs(root + g2 + 1.0) <= 1e-9

    def test_standard_limit_spin(self, monkeypatch):
        # x + g^(d)(x) + 1 = 2x - d + 1 for g = x - 1: one division, with no box enclosed,
        # gives Schwinger's cut root exactly.
        monkeypatch.setattr(Composition, "enclose", None)
        for d in range(1, 1002):
            sols = cut_condition_solve(SL2, d)
            assert (sols.included, sols.excluded) == (((d - 1) / 2.0,), ()), d

    def test_three_state_roots_against_grid_oracle(self):
        # brute-force sign-change scan on a fine grid, then refine by hand
        def func(a):
            return a + FIG2_GN(FIG2_GN(FIG2_GN(a))) + 1.0

        xs = np.linspace(-98.5, 1.5, 1_000_001)
        ys = func(xs)
        brackets = np.nonzero(np.signbit(ys[:-1]) != np.signbit(ys[1:]))[0]
        oracle = []
        for i in brackets:
            lo, hi = xs[i], xs[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if (func(mid) < 0.0) == (func(lo) < 0.0):
                    lo = mid
                else:
                    hi = mid
            oracle.append(0.5 * (lo + hi))
        sols = cut_condition_solve(FIG2_GN, 3)
        in_region = [r for r in oracle if r < 1.5]
        got = sorted(sols.included + tuple(r for r in sols.excluded if r < 1.5))
        assert got == pytest.approx(sorted(in_region), abs=1e-8)


class TestPeriodicSolve:
    def test_fixed_point_found_by_tangency(self):
        roots = periodic_condition_solve(FIG2_GN, 1)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.0, abs=1e-9)

    def test_linear_shift_has_no_periodic_points(self):
        for d in (1, 2, 3):
            assert periodic_condition_solve(SL2, d) == ()

    def test_more_roots_than_boxes_is_a_value_error(self):
        # g = 4x - 4x^2 has 2^14 points of period dividing 14, none of them in
        # the band of a box left, which once ended in an IndexError
        with pytest.raises(ValueError, match="more than 8192 boxes"):
            periodic_condition_solve(CharFn((0.0, 4.0, -4.0), Orientation.WEIGHT), 14)

    def test_period_two_points_match_fixed_points(self):
        # for this tangent quadratic the only period-2 points in the region
        # are the fixed point itself
        roots = periodic_condition_solve(FIG2_GN, 2)
        assert roots == pytest.approx([1.0], abs=1e-8)


#: Weight quadratics, random cubics and quadratics padded with a trailing zero.
CLOSURE_COEFFS = st.one_of(
    st.tuples(st.floats(-2.0, 1.0), st.floats(0.5, 4.0), st.floats(-2.0, -0.2)),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3, st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)),
    st.tuples(st.floats(-2.0, 1.0), st.floats(0.5, 4.0), st.floats(-2.0, -0.2), st.just(0.0)),
)


#: ``wide_mix``'s coefficient law, ``U(-1, 1) * 10**U(-3, 6)``, at degree 1 to 3: an exact
#: value's bits grow as the degree to the d, and so does the oracle's time.
WIDE_COEFFS = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-3.0, 6.0))
                       .map(lambda t: t[0] * 10 ** t[1]), min_size=2, max_size=4)


#: ``(sign, shift)`` of the cut function ``g^(d)(x) + x + 1`` and of the periodic
#: one ``g^(d)(x) - x``.
CLOSURE_LINES = ((1.0, 1.0), (-1.0, 0.0))


#: Dyadic roots in [-4, 4], 2**-14 apart at the finest.
DYADIC_ROOT = st.integers(-(2**16), 2**16).map(lambda k: k / 2**14)


@st.composite
def dyadic_polynomials(draw):
    """``(coefficients, roots)`` of ``lead (x - r_1) ... (x - r_n)``, n = 2 or 3, exact in floats.

    The roots are at least 1/16 apart, except that half the draws put the
    second root 2**-14 above the first.  Quadratics open downward, so that
    ``p(x) - x - 1`` is a weight function.
    """
    n = draw(st.integers(2, 3))
    roots = draw(st.lists(DYADIC_ROOT, min_size=n, max_size=n, unique=True))
    pair = draw(st.booleans())
    spread = sorted(roots[1:] if pair else roots)
    assume(all(b - a >= 2**-4 for a, b in zip(spread, spread[1:])))
    if pair:
        roots[0] = roots[1] + 2**-14
        assume(all(abs(r - roots[1]) >= 2**-4 for r in roots[2:]))
    lead = draw(st.sampled_from([-2.0, -1.0, -0.5] + ([0.5, 1.0, 2.0] if n == 3 else [])))
    poly = [Fraction(lead)]
    for r in roots:  # multiply by (x - r), coefficients highest first
        poly = [a - Fraction(r) * b for a, b in zip(poly + [0], [0] + poly)]
    coeffs = [float(c) for c in reversed(poly)]
    assume(all(Fraction(c) == e for c, e in zip(coeffs, reversed(poly))))
    return coeffs, sorted(roots)


def root_mix():
    """The roots of 1,004 solves, one list each.

    Cut and periodic solves at d = 1, 2, 3, 4 and 8 over 80 weight quadratics
    drawn as the closure-scan benchmark draws them, both at d = 16 and 32 for
    the showcase, and 200 ``find_roots`` calls on polynomials of degree 1 to 6.
    """
    rng = random.Random(26)
    quadratics = [(-rng.uniform(0.25, 1.5), rng.uniform(1.5, 3.5), -rng.uniform(0.5, 1.5))
                  for _ in range(80)]
    solves = [(CharFn(q, Orientation.WEIGHT), (1, 2, 3, 4, 8)) for q in quadratics]
    for gn, ds in solves + [(FIG2_GN, (16, 32))]:
        for d in ds:
            for kind in (RepKind.FINITE_CUT, RepKind.FINITE_PERIODIC):
                yield [r for r, _ in _closure_roots(gn, d, kind)]
    for _ in range(200):
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 7))]
        yield find_roots(coeffs)


#: sha256 of the ``float.hex`` texts of the roots of ``root_mix``, one line per solve.
ROOT_MIX_DIGEST = "d2a36aa030b0f4c384c1b711df45defa321e98c3defbbbb2b25fe1ea972cac9d"


def wide_mix():
    """The roots of 150 closures over wide-scale polynomials, one list each.

    Degree 1 to 6 with coefficients ``U(-1, 1) * 10**U(-3, 6)``, d from
    ``{1, 1, 2, 3, 4}``, cut, periodic or plain ``(sign, shift)`` and three
    tolerances, each solved on ``[-R, 1.3 R]``.  Unlike ``root_mix``, these
    draws reach the cluster path of :meth:`Composition._collect` often.
    """
    rng = random.Random(28)
    for _ in range(150):
        coeffs = [rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-3.0, 6.0)
                  for _ in range(rng.randint(2, 7))]
        d = rng.choice((1, 1, 2, 3, 4))
        sign, shift = rng.choice(((0.0, 0.0), (1.0, 1.0), (-1.0, 0.0)))
        tol = rng.choice((1e-12, 1e-9, 1e-6))
        closure = Composition(coeffs, d, sign, shift)
        radius = closure.radius()
        yield closure.roots(-radius, 1.3 * radius, tol)


#: sha256 of the ``float.hex`` texts of the roots of ``wide_mix``, one line per solve.
WIDE_MIX_DIGEST = "05890ce61bd80f35ce47d93e5d8766d2aeca71a2311fbc08857869a93bed4c41"


def deep_mix_solves():
    """36 deep closure solves, ``(gn, d, kind)`` each.

    Cut and periodic solves at d = 13, 14 and 20 for the showcase and five
    weight quadratics drawn as in ``root_mix``.  Unlike ``root_mix``, whose
    only such levels are the showcase's at d = 16 and 32, these solves run
    many levels with mean-value ("tight") iterate bounds.
    """
    rng = random.Random(29)
    quadratics = [(-rng.uniform(0.25, 1.5), rng.uniform(1.5, 3.5), -rng.uniform(0.5, 1.5))
                  for _ in range(5)]
    for gn in [FIG2_GN] + [CharFn(q, Orientation.WEIGHT) for q in quadratics]:
        for d in (13, 14, 20):
            for kind in (RepKind.FINITE_CUT, RepKind.FINITE_PERIODIC):
                yield gn, d, kind


def deep_mix():
    """The roots of ``deep_mix_solves``, one list each."""
    for gn, d, kind in deep_mix_solves():
        yield [r for r, _ in _closure_roots(gn, d, kind)]


#: sha256 of the ``float.hex`` texts of the roots of ``deep_mix``, one line per solve.
DEEP_MIX_DIGEST = "f24092beb4e3d0293a67f8a3dca86967d7a134b8fd6adfd80df536b3e5a0d289"


#: ``Composition.exact`` calls of ``root_mix``, ``wide_mix`` and ``deep_mix``: today's counts,
#: which a change may lower and none may raise.
ROOT_MIX_EXACT_CALLS, WIDE_MIX_EXACT_CALLS, DEEP_MIX_EXACT_CALLS = 6, 1490, 9


def exact_calls(monkeypatch) -> list[tuple]:
    """``(x, slope)`` of every ``Composition.exact`` call from now on, appended as it is made."""
    calls = []
    exact = Composition.exact
    monkeypatch.setattr(Composition, "exact", lambda self, x, slope=False:
                        calls.append((x, slope)) or exact(self, x, slope))
    return calls


def floats_to_sign_change(closure: Composition, root: float, reach: int = 64) -> int | None:
    """How many floats lie strictly between ``root`` and the nearest exact sign change of
    ``closure`` (0 at either float next to it, or at an exact zero); ``None`` past ``reach``."""
    first = closure.exact(root)
    if first == 0.0:
        return 0
    up = down = root
    for count in range(reach + 1):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        if any(closure.exact(x) * first <= 0.0 for x in (up, down)):
            return count
    return None


#: The largest count of floats strictly between a root and its exact sign change, for the
#: showcase's cut and periodic roots at d = 13, 14, 16, 20, 32 and 64 and for ``deep_mix``,
#: by the largest d of each range.  Today's counts; a change may lower them, none raise them.
SHOWCASE_FLOATS_OFF = {16: 1, 32: 2, 64: 1}
DEEP_MIX_FLOATS_OFF = {16: 26, 32: 26}


class TestIsolator:
    """``Composition.roots`` behind both solvers and ``find_roots``."""

    @given(case=dyadic_polynomials())
    @settings(max_examples=150, deadline=None)
    def test_known_dyadic_roots_each_reported_once(self, case):
        coeffs, roots = case
        assert find_roots(coeffs) == pytest.approx(roots, abs=1e-9)
        # x + g(x) + 1 is the polynomial itself
        gn = CharFn((coeffs[0] - 1.0, coeffs[1] - 1.0, *coeffs[2:]), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert sorted(sols.included + sols.excluded) == pytest.approx(roots, abs=1e-9)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_root_on_a_box_edge(self, d):
        # x + g^(d)(x) + 1 = 2x - d + 1 vanishes exactly at an end of a first-level box, and so
        # does (x - r)(x - 100), which the isolator solves.
        r = (d - 1) / 2.0
        assert Composition(SL2.coefficients, d, 1.0, 1.0).roots(-16.0, 16.0, 1e-9) == [r]
        quadratic = Composition((100.0 * r, -(r + 100.0), 1.0), 1, 0.0, 0.0)
        assert quadratic.roots(-16.0, 16.0, 1e-9) == [r]
        assert (r + 16.0) / (32.0 / BOXES) % 1.0 == 0.0

    @pytest.mark.parametrize("side", [-0.25, 0.25])
    def test_sign_change_next_to_a_shared_box_edge(self, side):
        # g(x) - x = x - r changes sign a quarter box from the edge boxes 299 and 300 share, and
        # so does (x - r)(x - 100), which the isolator solves.
        width = 10.0 / BOXES
        r = -5.0 + 300 * width + side * width
        assert Composition((-r, 2.0), 1, -1.0, 0.0).roots(-5.0, 5.0, 1e-9) == [r]
        quadratic = Composition((100.0 * r, -(r + 100.0), 1.0), 1, 0.0, 0.0)
        assert quadratic.roots(-5.0, 5.0, 1e-9) == pytest.approx([r], abs=1e-15)

    def test_zero_at_hi(self):
        # x + g(x) + 1 = 2x - 10 and (x - 5)(x + 100) vanish at hi = 5, even at zero residual
        # tolerance.
        gn = CharFn((-11.0, 1.0), Orientation.WEIGHT)
        assert Composition(gn.coefficients, 1, 1.0, 1.0).roots(-5.0, 5.0, 0.0) == [5.0]
        assert Composition((-500.0, 95.0, 1.0), 1, 0.0, 0.0).roots(-5.0, 5.0, 0.0) == [5.0]
        sols = cut_condition_solve(gn, 1)
        assert sols.included + sols.excluded == (5.0,)

    @given(coeffs=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
           d=st.integers(1, 8), line=st.sampled_from(CLOSURE_LINES + ((0.0, 0.0),)))
    @settings(max_examples=300, deadline=None)
    @example(coeffs=(-1.0, 1.0), d=3, line=(1.0, 1.0))  # Schwinger's cut root 1
    @example(coeffs=(1e308, 1e-10), d=1, line=(0.0, 0.0))  # the root -1e318
    def test_linear_root_is_the_exact_root_rounded_once(self, coeffs, d, line):
        # A linear g composes to a linear F, whose root Fraction arithmetic gives exactly.
        sign, shift = line
        b, a = map(Fraction, coeffs)
        y, s = Fraction(0), Fraction(1)
        for _ in range(d):  # g^(d)(x) = y + s x
            y, s = a * y + b, a * s
        c0, c1 = y + int(shift), s + int(sign)
        closure = Composition(coeffs, d, sign, shift)
        if c1 == 0:  # a constant F: no root, or it vanishes everywhere
            if c0 == 0:
                with pytest.raises(ValueError, match="the function vanishes on"):
                    closure.roots(-1.0, 1.0, CUT_SOLVE_TOL)
            else:
                assert closure.roots(-math.inf, math.inf, CUT_SOLVE_TOL) == []
            return
        try:
            want = [float(-c0 / c1)]
        except OverflowError:  # past the float range
            want = []
        got = closure.roots(-math.inf, math.inf, CUT_SOLVE_TOL)
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        radius = closure.radius()
        if want and math.isfinite(1.3 * radius):  # the interval the closure solvers search
            assert closure.roots(-radius, 1.3 * radius, CUT_SOLVE_TOL) == want

    def test_showcase_tangent_fixed_point(self):
        # -x^2 + 3x - 1 touches the diagonal at 1 without crossing it: the
        # root is the zero of the derivative inside a cluster.
        assert periodic_condition_solve(FIG2_GN, 1) == (1.0,)
        assert Composition([-1.0, 2.0, -1.0], 1, 0.0, 0.0).roots(-20.0, 20.0, 1e-12) == [1.0]

    @given(a=st.floats(-3.0, 3.0), lead=st.floats(-2.0, -0.2))
    @settings(max_examples=100, deadline=None)
    def test_tangent_cut_is_one_root(self, a, lead):
        # x + g(x) + 1 = lead (x - a)^2 with rounded coefficients: often two
        # real roots ~1e-8 apart, split by the rounding, still one root.
        gn = CharFn((lead * a * a - 1.0, -2.0 * lead * a - 1.0, lead), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert sols.included + sols.excluded == pytest.approx([a], abs=1e-8)

    def test_three_roots_between_two_derivative_zeros(self):
        # x + g(x) + 1 = 1e-6 x - x^3: the stretch within the band holds three
        # roots and both zeros of the derivative.
        gn = CharFn((-1.0, -0.999999, 0.0, -1.0), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert sorted(sols.included + sols.excluded) == pytest.approx([-1e-3, 0.0, 1e-3],
                                                                      abs=1e-12)

    def test_root_of_multiplicity_five(self):
        # g = -(x - 1)^5: the region ends at 1, a root of multiplicity four of
        # g'; x + g(x) + 1 has one root, past the region.
        gn = CharFn((1.0, -5.0, 10.0, -10.0, 5.0, -1.0), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert (sols.included, sols.excluded) == ((), pytest.approx((2.2671683045421247,)))

    @pytest.mark.parametrize("gap, count", [(1e-10, 1), (1e-8, 0)])
    def test_near_tangency_is_a_root_within_the_tolerance(self, gap, count):
        # x + g(x) + 1 = -(x - 1/3)^2 - gap stays below zero; its top counts
        # as a root only while it is within the 1e-9 residual tolerance.
        a = 1.0 / 3.0
        gn = CharFn((-a * a - gap - 1.0, 2.0 * a - 1.0, -1.0), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert sorted(sols.included + sols.excluded) == pytest.approx([a] * count, abs=1e-8)

    def test_overflow_inside_the_window(self):
        # -x^3 + 3x - 1 padded with a zero: the orbit overflows to +-inf, and
        # one step later the padding's 0 * inf makes it NaN.
        # At d = 7 it does so inside [-7, 9.1], the interval of the escape radius 7.
        padded = CharFn((-1.0, 3.0, 0.0, -1.0, 0.0), Orientation.WEIGHT)
        assert Composition(padded.coefficients, 7, 1.0, 1.0).radius() == 7.0
        xs = np.linspace(-7.0, 1.3 * 7.0, 40001)
        with np.errstate(over="ignore", invalid="ignore"):
            values = xs
            for _ in range(7):
                values = padded(values)
        assert np.isinf(values).any() and np.isnan(values).any()
        cubic = CharFn(padded.coefficients[:4], Orientation.WEIGHT)
        assert cut_condition_solve(padded, 7) == cut_condition_solve(cubic, 7)
        assert periodic_condition_solve(padded, 7) == periodic_condition_solve(cubic, 7)
        # Each d = 8 root of the showcase brackets an exact sign change.
        sols = cut_condition_solve(FIG2_GN, 8)
        for r in sols.included + sols.excluded:
            below, above = (exact_closure(FIG2_GN.coefficients, 8, 1, 1, r + e)
                            for e in (-1e-9, 1e-9))
            assert below * above < 0

    def test_deep_composition_matches_the_grid_scan(self):
        # At d = 16 interval Horner loses so much per composition that the
        # tangent fixed point is isolated only with mean-value iterate bounds.
        assert periodic_condition_solve(FIG2_GN, 16) == (1.0,)
        sols = cut_condition_solve(FIG2_GN, 16)
        assert (sols.included, sols.excluded) == ((0.9248095957609905,), (2.0767938728888216,))

    def test_derivative_coefficients_built_once_per_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr("gjsmap.roots._derivative",
                            lambda c: calls.append(c) or _derivative(c))
        cut_condition_solve(FIG2_GN, 3)
        periodic_condition_solve(FIG2_GN, 2)
        assert calls == [list(FIG2_GN.coefficients), [3.0, -2.0]] * 2  # g' and g''

    def test_chain_rule_evaluates_g_d_minus_one_times(self, monkeypatch):
        closure = Composition(FIG2_GN.coefficients, 4, 1.0, 1.0)
        calls = []
        monkeypatch.setattr("gjsmap.roots._horner",
                            lambda c, x: calls.append(len(c)) or _horner(c, x))
        closure.dfunc(0.3)
        assert calls == [2, 3, 2, 3, 2, 3, 2]  # g' four times, g three times

    def test_every_root_of_the_mix_keeps_its_bits(self, monkeypatch):
        # A root that moves by one ulp moves the digest; it moves only on
        # purpose, in a commit of its own.
        decided = exact_calls(monkeypatch)
        rows = [" ".join(map(float.hex, roots)) for roots in root_mix()]
        assert (len(rows), sum(len(row.split()) for row in rows)) == (1004, 1118)
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == ROOT_MIX_DIGEST
        assert len(decided) <= ROOT_MIX_EXACT_CALLS

    def test_every_root_of_the_wide_mix_keeps_its_bits(self, monkeypatch):
        # The cluster path, which root_mix seldom takes, is pinned the same way.
        calls = []
        value = Composition.value
        decided = exact_calls(monkeypatch)

        def probe(self, x, slope=False):  # records (closure, x, slope, whether exact decided)
            before = len(decided)
            out = value(self, x, slope)
            calls.append((self, x, slope, len(decided) > before))
            return out

        monkeypatch.setattr(Composition, "value", probe)
        rows = [" ".join(map(float.hex, roots)) for roots in wide_mix()]
        assert (len(rows), sum(len(row.split()) for row in rows)) == (150, 276)
        assert len(calls) > 1000  # the cluster path ran
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == WIDE_MIX_DIGEST
        assert len(decided) <= WIDE_MIX_EXACT_CALLS
        # The isolator reads no float that lies within its rounding, where its sign may flip.
        trusted = [(closure, x, slope) for closure, x, slope, by_exact in calls if not by_exact]
        assert all(abs(closure.dfunc(x) if slope else closure.func(x)) > closure.rounding(x, slope)
                   for closure, x, slope in trusted)

    def test_value_within_its_rounding_is_exact(self):
        # A wide_mix draw where the float F, 1.8967567941253516, lies within its rounding,
        # 3.07, and has the wrong sign.
        closure = Composition([1.8870469771120528, -0.026546733024239415, -0.005092036863703937,
                               -831.9888442271697, -16.13482549288312, 0.0013597931823693308,
                               0.029122082485312586], 4, 0.0, 0.0)
        x = float.fromhex("-0x1.63b0f5f4a7686p-2")
        assert 0.0 < closure.func(x) < closure.rounding(x)
        assert closure.value(x) == closure.exact(x) == -0.7412667786539545

    def test_every_root_of_the_deep_mix_keeps_its_bits(self, monkeypatch):
        # The mean-value levels, which root_mix reaches only at d = 16 and 32, are pinned too.
        tight = []
        enclose = Composition.enclose
        monkeypatch.setattr(Composition, "enclose", lambda self, lo, hi, t=False, order=0:
                            tight.append(t) or enclose(self, lo, hi, t, order))
        decided = exact_calls(monkeypatch)
        rows = [" ".join(map(float.hex, roots)) for roots in deep_mix()]
        assert (len(rows), sum(len(row.split()) for row in rows)) == (36, 34)
        assert any(tight)  # a tight level ran
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == DEEP_MIX_DIGEST
        assert len(decided) <= DEEP_MIX_EXACT_CALLS

    def test_every_deep_root_is_within_its_pinned_floats_of_an_exact_sign_change(self):
        showcase = [(FIG2_GN, d, kind) for d in (13, 14, 16, 20, 32, 64) for kind in _CLOSURE]
        for bounds, solves in ((SHOWCASE_FLOATS_OFF, showcase),
                               (DEEP_MIX_FLOATS_OFF, deep_mix_solves())):
            worst = dict.fromkeys(bounds, 0)
            for gn, d, kind in solves:
                closure = Composition(gn.coefficients, d, *_CLOSURE[kind][:2])
                for root, _ in _closure_roots(gn, d, kind):
                    count = floats_to_sign_change(closure, root)
                    assert count is not None, (gn, d, kind, root)
                    top = min(top for top in bounds if d <= top)
                    worst[top] = max(worst[top], count)
            assert all(worst[top] <= bounds[top] for top in bounds), worst

    def test_composition_is_freed_after_its_roots(self, monkeypatch):
        # An instance keeps no state, so no reference cycle holds it until a gc pass.
        calls = exact_calls(monkeypatch)
        closure = Composition(FIG2_GN.coefficients, 1, -1.0, 0.0)
        assert closure.roots(-5.0, 5.0, CUT_SOLVE_TOL) == [1.0]
        assert (1.0, False) in calls  # the tangency is decided exactly
        freed = weakref.ref(closure)
        del closure
        assert freed() is None


class TestClosureScanDefects:
    """Two d = 1 cuts the retired grid scan got wrong."""

    def test_close_root_pair_has_no_middle_root(self):
        # x + g(x) + 1 = -(x - a)(x - b); the derivative zero between the
        # roots has residual (gap / 2)^2 ~ 6e-10, inside the 1e-9 test.
        a, b = -2.0, -2.0 + 5e-5
        gn = CharFn((-a * b - 1.0, a + b - 1.0, -1.0), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert sorted(sols.included + sols.excluded) == pytest.approx([a, b], abs=1e-9)

    def test_close_simple_roots_are_all_reported(self):
        # x + g(x) + 1 = x (x - 5e-5) (x - 5): the roots 0 and 5e-5 shared
        # one interval of the old grid, which saw no sign change there.
        e = 5e-5
        gn = CharFn((-1.0, 5.0 * e - 1.0, -(5.0 + e), 1.0), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert sorted(sols.included + sols.excluded) == pytest.approx([0.0, e, 5.0], abs=1e-9)


def assert_in_box(value: float, lo: float, hi: float) -> None:
    """``value`` lies in ``[lo, hi]``, or it or a bound is NaN."""
    assert math.isnan(value) or math.isnan(lo) or math.isnan(hi) or lo <= value <= hi


def times_power_of_two(q: float, e: int) -> int:
    """``q * 2**e`` of a finite float ``q``, exactly, for ``e >= 1074``."""
    num, den = q.as_integer_ratio()
    return num << (e + 1 - den.bit_length())


class TestEnclosure:
    """At every point of a box the float results lie in the box's enclosure."""

    @given(
        coeffs=CLOSURE_COEFFS,
        d=st.integers(1, 8),
        lo=st.floats(-50.0, 50.0) | st.floats(-1e200, 1e200),
        width=st.floats(0.0, 10.0) | st.floats(0.0, 1e200),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_values_lie_in_enclosure(self, coeffs, d, lo, width, data):
        gn = CharFn(coeffs, Orientation.WEIGHT)
        hi = lo + width
        points = data.draw(st.lists(st.floats(lo, hi), max_size=8)) + [lo, hi]
        box = np.array([lo]), np.array([hi])
        with np.errstate(over="ignore", invalid="ignore"):
            closures = []
            for sign, shift in CLOSURE_LINES:
                closure = Composition(coeffs, d, sign, shift)
                f_lo, f_hi, slope, _ = closure.enclose(*box, order=1)
                bounds = [float(b[0]) for b in (f_lo, f_hi, *slope)]
                closures.append((closure.func, closure.dfunc, bounds))
            for x in points:
                # g^(d) composed of evaluate calls, trailing zeros included
                y = x
                for _ in range(d):
                    y = gn(y)
                for (func, dfunc, (flo, fhi, dlo, dhi)), (sign, shift) in zip(closures,
                                                                            CLOSURE_LINES):
                    assert_in_box(y + sign * x + shift, flo, fhi)
                    assert_in_box(func(x), flo, fhi)
                    assert_in_box(float(func(np.array([x]))[0]), flo, fhi)
                    assert_in_box(dfunc(x), dlo, dhi)

    @given(
        coeffs=CLOSURE_COEFFS,
        d=st.integers(1, 6),
        lo=st.floats(-50.0, 50.0) | st.floats(-1e200, 1e200),
        width=st.floats(0.0, 10.0) | st.floats(0.0, 1e200),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_second_derivative_lies_in_enclosure(self, coeffs, d, lo, width, data):
        # F'' is g^(d)'' (the line sign x + shift adds nothing), by the chain
        # rule in the order of the interval operations.
        hi = lo + width
        points = data.draw(st.lists(st.floats(lo, hi), max_size=8)) + [lo, hi]
        closure = Composition(coeffs, d, 0.0, 0.0)
        dcoeffs = _derivative(closure.coeffs)
        ddcoeffs = _derivative(dcoeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            curve = closure.enclose(np.array([lo]), np.array([hi]), order=2)[3]
            c_lo, c_hi = (float(b[0]) for b in curve)
        for x in points:
            y, s, c = x, 1.0, 0.0
            for _ in range(d):
                t = _horner(dcoeffs, y)
                c = _horner(ddcoeffs, y) * (s * s) + t * c
                s, y = s * t, _horner(closure.coeffs, y)
            assert_in_box(c, c_lo, c_hi)

    @given(coeffs=CLOSURE_COEFFS, d=st.integers(1, 4),
           xs=st.lists(st.floats(-3.0, 3.0) | st.integers(-48, 48).map(lambda k: k / 16),
                       min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_exact_value_is_the_rounded_rational_value(self, coeffs, d, xs):
        # Decimal intervals refined to one float: the sign is exact (dyadic
        # zeros included) and the value is the rational value rounded once.
        for sign, shift in CLOSURE_LINES:
            exact = Composition(coeffs, d, sign, shift).exact
            for x in xs:
                assert exact(x) == float(exact_closure(coeffs, d, int(sign), int(shift), x))
                assert exact(x, slope=True) == float(exact_closure_slope(coeffs, d, int(sign), x))

    @pytest.mark.parametrize("x", [0.9144468337498393, 0.9126487217250238, 1.5])
    @pytest.mark.parametrize("slope", [False, True])
    @pytest.mark.parametrize("sign, shift", CLOSURE_LINES)
    def test_exact_value_past_degree_boxes_times_split(self, sign, shift, slope, x):
        # At d = 14 the showcase composes to degree 16,384 > BOXES * SPLIT; the second x is
        # the d = 14 cut root, where the float cut value even has the wrong sign.
        exact = Composition(FIG2_GN.coefficients, 14, sign, shift).exact(x, slope)
        want = dyadic_closure(FIG2_GN.coefficients, 14, sign, shift, x, slope)
        assert exact.hex() == want.hex()

    def test_exact_value_of_an_escaping_orbit_is_infinite(self):
        # The outward-rounded ends overflow to an infinity and the largest Decimal, which
        # round to the same float.
        periodic = Composition(FIG2_GN.coefficients, 128, -1.0, 0.0)
        assert (periodic.exact(0.5), periodic.exact(0.5, slope=True)) == (-math.inf, math.inf)

    def test_exact_value_past_the_digit_cap_raises(self, monkeypatch):
        # The d = 13 cut root needs 48 digits to decide its value's float.
        monkeypatch.setattr("gjsmap.roots._MAX_DIGITS", 24)
        with pytest.raises(ValueError, match="0.9050395006845084"):
            Composition(FIG2_GN.coefficients, 13, 1.0, 1.0).exact(0.9050395006845084)

    @given(coeffs=CLOSURE_COEFFS | WIDE_COEFFS, d=st.integers(1, 4),
           xs=st.lists(st.floats(-3.0, 3.0) | st.integers(-48, 48).map(lambda k: k / 16),
                       min_size=1, max_size=6))
    @example(coeffs=[0.0, 0.0], d=1, xs=[0.5])  # g^(d) is a constant coarser than x
    @settings(max_examples=150, deadline=None)
    def test_rounding_bounds_the_float_error(self, coeffs, d, xs):
        # So wherever a float value is farther from 0 than its rounding, its sign is exact.
        for sign, shift in CLOSURE_LINES:
            closure = Composition(coeffs, d, sign, shift)
            for x in xs:
                with np.errstate(over="ignore", invalid="ignore"):
                    pairs = ((closure.func(x), closure.rounding(x), False),
                             (closure.dfunc(x), closure.rounding(x, slope=True), True))
                for value, bound, slope in pairs:
                    if math.isfinite(value) and math.isfinite(bound):
                        # |value - n / 2**e| <= bound in integers over 2**top
                        n, e = dyadic_closure_ratio(coeffs, d, int(sign), int(shift), x, slope)
                        top = max(e, 1074)
                        assert (abs(times_power_of_two(value, top) - (n << (top - e)))
                                <= times_power_of_two(bound, top))


#: g of degree 1 to 4, its leading coefficient down to 1e-6 in magnitude.
BOUND_COEFFS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    *[st.floats(-3.0, 3.0)] * n,
    st.tuples(st.floats(-6.0, 0.5), st.sampled_from([-1.0, 1.0])).map(lambda t: t[1] * 10 ** t[0]),
))


class TestDerivedInterval:
    """The closure solvers search the interval ``Composition.radius`` derives from ``g``."""

    def test_standard_spin_two_hundred(self):
        # x + g^(401)(x) + 1 = 2x - 400 for g = x - 1, far outside the old fixed window.
        sols = cut_condition_solve(SL2, 401)
        assert (sols.included, sols.excluded) == ((200.0,), ())

    def test_in_region_root_far_from_the_vertex(self):
        # x + g(x) + 1 = 2x - 0.001 x^2; the vertex is at 500, the root 0 in the region.
        sols = cut_condition_solve(CharFn((-1.0, 1.0, -0.001), Orientation.WEIGHT), 1)
        assert sols.included == pytest.approx([0.0], abs=1e-9)
        assert sols.excluded == (2000.0,)

    def test_fixed_point_far_from_the_vertex(self):
        # g(x) - x = -0.01 x^2 + 2x - 1; the vertex is at 150.
        gn = CharFn((-1.0, 3.0, -0.01), Orientation.WEIGHT)
        assert periodic_condition_solve(gn, 1) == (0.5012562893380046,)

    @given(coeffs=BOUND_COEFFS, d=st.integers(1, 4), line=st.sampled_from(CLOSURE_LINES))
    @settings(max_examples=150, deadline=None)
    def test_no_root_past_the_bound(self, coeffs, d, line):
        # Past the escape radius |F(x)| > |x|; past a Cauchy bound (d = 1 or
        # a linear g) F(x) != 0 only, so F keeps one sign on each side.
        sign, shift = line
        exact = functools.partial(exact_closure, coeffs, d, int(sign), int(shift))
        assume(len(coeffs) > 2 or exact(0.0) != 0 or exact(1.0) != 0)  # F = 0 is refused
        radius = Composition(coeffs, d, sign, shift).radius()
        escape = d > 1 and len(coeffs) > 2
        for side in (-1.0, 1.0):
            xs = [side * radius * t for t in (1.0, 1.5, 8.0, 1e3)]
            values = [exact(x) for x in xs]
            assert all(v > 0 for v in values) or all(v < 0 for v in values)
            if escape:
                assert all(abs(v) > abs(x) for v, x in zip(values, xs))

    @given(coeffs=BOUND_COEFFS, d=st.integers(1, 2), line=st.sampled_from(CLOSURE_LINES))
    @settings(max_examples=150, deadline=None)
    def test_every_real_root_is_reported(self, coeffs, d, line):
        # Each real root of the expanded polynomial is near a reported root
        # if the exact F changes sign within 1e-6 of it (relative), and its
        # float residual can meet the 1e-9 test: a root where one ulp moves
        # F by more is dropped by that test.
        sign, shift = line
        exact = functools.partial(exact_closure, coeffs, d, int(sign), int(shift))
        assume(len(coeffs) > 2 or exact(0.0) != 0 or exact(1.0) != 0)  # F = 0 is refused
        kind = RepKind.FINITE_CUT if sign > 0.0 else RepKind.FINITE_PERIODIC
        gn = CharFn(coeffs, Orientation.WEIGHT if coeffs[-1] < 0.0 else Orientation.OSCILLATOR)
        reported = [r for r, _ in _closure_roots(gn, d, kind)]
        closure = Composition(coeffs, d, sign, shift)
        poly = Polynomial([0.0, 1.0])
        for _ in range(d):
            poly = Polynomial(coeffs)(poly)
        for z in (poly + Polynomial([shift, sign])).roots():
            x, h = float(z.real), 1e-6 * max(1.0, abs(z.real))
            if abs(z.imag) > h or exact(x - h) * exact(x + h) >= 0:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                slack = abs(closure.dfunc(x)) * math.ulp(x) + closure.rounding(x)
            if not slack <= 0.1 * CUT_SOLVE_TOL * max(1.0, abs(x)):
                continue
            assert any(abs(r - x) <= 2.0 * h for r in reported), (x, reported)


class TestSerialization:
    def test_json_round_trip(self):
        rep = build_gsl2(FIG2_GN, ROUNDED_ROOT, 2, RepKind.FINITE_CUT)
        data = json.loads(json.dumps(gsl2_to_dict(rep)))
        assert data["kind"] == "cut"
        assert "cut_residual" in data
        assert data["weights"] == rep.weights.tolist()
        assert data["ladder_sq"] == rep.ladder_sq.tolist()
        assert RepKind(data["kind"]) is rep.kind


class TestQOscillatorCut:
    """g = q x - 1 at its closed-form cut root, an oracle outside the solver."""

    @given(q=Q_PARAMETER, two_j=st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_relations_and_casimir(self, q, two_j):
        gn = CharFn((-1.0, q), Orientation.WEIGHT)
        alpha_j = q_cut_root(q, two_j + 1)
        casimir = alpha_j * (alpha_j + 1.0)
        rep = build_gsl2(gn, alpha_j, two_j + 1, RepKind.FINITE_CUT)
        assert verify_gsl2_relations(rep, tol=scaled_tol(casimir)).passed
        assert np.max(np.abs(np.diag(casimir_gsl2(rep).entries) - casimir)) <= scaled_tol(
            casimir
        )

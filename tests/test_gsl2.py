import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from gjsmap import (
    CharFn,
    Orientation,
    RepKind,
    build_gsl2,
    casimir_gsl2,
    charfun,
    cut_condition_solve,
    gauss_numbers,
    gsl2,
    gsl2_from_dict,
    gsl2_to_dict,
    invertibility_region,
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
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Q_PARAMETER,
    cut_quartic_roots_oracle,
    dense_gsl2,
    full_grid_closure_roots,
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
        assert rep.weights == (1.0, 0.0, -1.0)
        assert rep.ladder_sq == (2.0, 2.0)
        assert rep.cut_residual == 0.0

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
        assert rep.weights == (1.0,)
        assert rep.ladder_sq == ()
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
            yield replace(rep, weights=tuple(weights))
            yield replace(rep, ladder_sq=tuple(ladder_sq))

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
        bad = replace(rep, weights=(rep.weights[0], rep.weights[1] + 0.01)
                      + rep.weights[2:])
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

    def test_standard_limit_spin(self):
        for d in range(1, 6):
            sols = cut_condition_solve(SL2, d, window=20.0, step=1e-3)
            assert len(sols.included) == 1
            assert sols.included[0] == pytest.approx((d - 1) / 2.0, abs=1e-9)
            assert sols.excluded == ()

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
            assert periodic_condition_solve(SL2, d, window=20.0, step=1e-3) == ()

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


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def assert_full_grid_roots(gn: CharFn, d: int, window: float, step: float) -> None:
    """Both solvers return exactly the roots of the full-grid reference scan."""
    lo_r, hi_r = invertibility_region(gn)
    cut = cut_condition_solve(gn, d, window=window, step=step)
    want = full_grid_closure_roots(gn, d, "cut", window, step)
    assert hexes(sorted(cut.included + cut.excluded)) == hexes(want)
    want = full_grid_closure_roots(gn, d, "periodic", window, step)
    got = periodic_condition_solve(gn, d, window=window, step=step)
    assert hexes(got) == hexes(r for r in want if lo_r < r < hi_r)


class TestBlockScan:
    """The block-pruned scan against the full-grid scan it replaced."""

    @given(
        coeffs=CLOSURE_COEFFS,
        d=st.integers(1, 8),
        window=st.floats(5.0, 20.0),
        step=st.floats(8e-4, 1.2e-3),
        block=st.sampled_from([1, 3, 64, gsl2.BLOCK]),
        sub=st.sampled_from([1, 2, 8, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_full_grid_scan(self, coeffs, d, window, step, block, sub):
        with mock.patch.object(gsl2, "BLOCK", block), mock.patch.object(gsl2, "SUB", sub):
            assert_full_grid_roots(CharFn(coeffs, Orientation.WEIGHT), d, window, step)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_root_on_a_grid_sample(self, monkeypatch, d):
        monkeypatch.setattr(gsl2, "BLOCK", 8)
        root = cut_condition_solve(SL2, d, window=20.0, step=1e-3).included
        assert root == ((d - 1) / 2.0,)
        assert root[0] in np.linspace(-20.0, 20.0, 40001)
        assert_full_grid_roots(SL2, d, 20.0, 1e-3)

    @pytest.mark.parametrize("side", [-0.25, 0.25])
    def test_sign_change_at_a_shared_block_edge(self, monkeypatch, side):
        # g(x) - x = x - r changes sign between sample 4800, which blocks
        # 599 and 600 share, and its left or right neighbour.
        monkeypatch.setattr(gsl2, "BLOCK", 8)
        xs = np.linspace(-5.0, 5.0, 10001)
        r = xs[4800] + side * (xs[4801] - xs[4800])
        gn = CharFn((-r, 2.0), Orientation.WEIGHT)
        ys = xs + -r
        flips = np.flatnonzero(np.signbit(ys[:-1]) != np.signbit(ys[1:]))
        assert flips.tolist() == [4800 if side > 0 else 4799]
        assert periodic_condition_solve(gn, 1, window=5.0, step=1e-3) == pytest.approx([r])
        assert_full_grid_roots(gn, 1, 5.0, 1e-3)

    @staticmethod
    def scan_periodic_line(r: float, step: float) -> tuple[list[float], np.ndarray]:
        """Roots of ``g(x) - x = x - r`` on [-5, 5], and the sample rows the scan built."""
        gn = CharFn((-r, 2.0), Orientation.WEIGHT)
        func, dfunc, enclosure = gsl2._closure_functions(gn, 1, RepKind.FINITE_PERIODIC)
        rows = []

        def spy(x):
            if np.ndim(x):
                rows.append(x)
            return func(x)

        roots = gsl2._scan_roots(spy, dfunc, enclosure, -5.0, 5.0, step, 1e-9)
        assert_full_grid_roots(gn, 1, 5.0, step)
        return roots, rows[0]

    def test_zero_sample_two_kept_blocks_share(self, monkeypatch):
        # Sample 4800 closes block 599 and opens block 600: both rows hold it.
        monkeypatch.setattr(gsl2, "BLOCK", 8)
        r = float(np.linspace(-5.0, 5.0, 10001)[4800])
        roots, rows = self.scan_periodic_line(r, 1e-3)
        assert rows.shape[1] == 9 and np.count_nonzero(rows == r) == 2
        assert roots == [r]

    def test_zero_sample_two_kept_boxes_of_one_block_share(self, monkeypatch):
        # Sample 4808 closes box 600 and opens box 601, both inside block 75.
        monkeypatch.setattr(gsl2, "BLOCK", 64)
        monkeypatch.setattr(gsl2, "SUB", 8)
        assert 4808 // 64 == 75 and 4808 % 64 == 8
        r = float(np.linspace(-5.0, 5.0, 10001)[4808])
        roots, rows = self.scan_periodic_line(r, 1e-3)
        assert rows.shape[1] == 9 and np.count_nonzero(rows == r) == 2
        (first, second), _ = np.nonzero(rows == r)
        assert second == first + 1 and rows[first, -1] == rows[second, 0] == r
        assert roots == [r]

    @pytest.mark.parametrize("side", [-0.25, 0.25])
    def test_sign_change_at_a_shared_box_edge(self, monkeypatch, side):
        # g(x) - x = x - r changes sign between sample 4808, which boxes 600
        # and 601 of block 75 share, and its left or right neighbour.
        monkeypatch.setattr(gsl2, "BLOCK", 64)
        monkeypatch.setattr(gsl2, "SUB", 8)
        xs = np.linspace(-5.0, 5.0, 10001)
        r = xs[4808] + side * (xs[4809] - xs[4808])
        gn = CharFn((-r, 2.0), Orientation.WEIGHT)
        ys = xs + -r
        flips = np.flatnonzero(np.signbit(ys[:-1]) != np.signbit(ys[1:]))
        assert flips.tolist() == [4808 if side > 0 else 4807]
        assert periodic_condition_solve(gn, 1, window=5.0, step=1e-3) == pytest.approx([r])
        assert_full_grid_roots(gn, 1, 5.0, 1e-3)

    def test_default_scan_samples_rows_of_one_box(self):
        # A 4096-pair block is kept, then sampled only in its 64-pair boxes
        # near the root: rows of SUB + 1 samples, far fewer than a block's.
        r = float(np.linspace(-5.0, 5.0, 10001)[4800])
        roots, rows = self.scan_periodic_line(r, 1e-3)
        assert (gsl2.BLOCK, gsl2.SUB) == (4096, 64)
        assert rows.shape[1] == 65 and rows.size < gsl2.BLOCK
        assert roots == [r]

    def test_sign_change_in_a_short_last_block(self, monkeypatch):
        # 9987 sample pairs: the last block holds 3 and repeats hi to fill its
        # row.  9987 h - 5 rounds below 5, so the scan must set hi itself.
        monkeypatch.setattr(gsl2, "BLOCK", 8)
        assert 9987.0 * (10.0 / 9987) + -5.0 < 5.0
        xs = np.linspace(-5.0, 5.0, 9988)
        r = 0.5 * (xs[-2] + xs[-1])
        roots, rows = self.scan_periodic_line(r, 1.0014e-3)
        assert rows[-1].tolist() == [*xs[-4:-1], 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]
        assert roots == pytest.approx([r], abs=1e-12) and xs[-2] < roots[0] < 5.0

    def test_zero_at_hi_past_the_rounded_last_sample(self):
        # 9987 h - 5 rounds below 5 = hi, where 2x - 10 vanishes: at zero
        # residual tolerance only a last box that reaches hi itself is kept.
        assert 9987.0 * (10.0 / 9987) + -5.0 < 5.0
        gn = CharFn((-11.0, 1.0), Orientation.WEIGHT)
        func, dfunc, enclosure = gsl2._closure_functions(gn, 1, RepKind.FINITE_CUT)
        assert gsl2._scan_roots(func, dfunc, enclosure, -5.0, 5.0, 1.0014e-3, 0.0) == [5.0]

    def test_brackets_are_neighbouring_samples(self, monkeypatch):
        # x + g(x) + 1 = -x^2 + 4x: kept blocks near the roots 0 and 4, and
        # the derivative changes sign at 2, inside the dropped blocks between.
        brackets = []
        bisect = gsl2._bisect
        monkeypatch.setattr(gsl2, "BLOCK", 8)
        monkeypatch.setattr(
            gsl2, "_bisect", lambda f, u, v, fu, fv: brackets.append(v - u) or bisect(f, u, v, fu, fv)
        )
        sols = cut_condition_solve(FIG2_GN, 1, window=5.0, step=1.1e-3)
        assert sols.included + sols.excluded == pytest.approx([0.0, 4.0], abs=1e-12)
        assert brackets and max(brackets) <= 1.1e-3
        assert_full_grid_roots(FIG2_GN, 1, 5.0, 1.1e-3)

    def test_showcase_tangent_fixed_point(self, monkeypatch):
        # -x^2 + 3x - 1 touches the diagonal at 1 without crossing it: the
        # root comes from the derivative's sign change alone.
        monkeypatch.setattr(gsl2, "BLOCK", 8)
        roots = periodic_condition_solve(FIG2_GN, 1, window=20.0, step=1e-4)
        assert roots == pytest.approx([1.0], abs=1e-9)
        assert_full_grid_roots(FIG2_GN, 1, 20.0, 1e-4)

    def test_overflow_inside_the_window(self, monkeypatch):
        # -x^3 + 3x - 1 padded with a zero: the orbit overflows to +-inf, and
        # one step later the padding's 0 * inf makes it NaN.
        monkeypatch.setattr(gsl2, "BLOCK", 8)
        gn = CharFn((-1.0, 3.0, 0.0, -1.0, 0.0), Orientation.WEIGHT)
        xs = np.linspace(-1.0 - 20.0, -1.0 + 20.0, 40001)
        with np.errstate(over="ignore", invalid="ignore"):
            values = gsl2._compose(gn, xs, 6)
        assert np.isinf(values).any() and np.isnan(values).any()
        assert_full_grid_roots(gn, 6, 20.0, 1e-3)
        assert_full_grid_roots(FIG2_GN, 8, 20.0, 1e-3)

    def test_derivative_coefficients_built_once_per_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gsl2, "_derivative", lambda c: calls.append(c) or charfun._derivative(c))
        cut_condition_solve(FIG2_GN, 3, window=20.0, step=1e-3)
        periodic_condition_solve(FIG2_GN, 2, window=20.0, step=1e-3)
        assert calls == [FIG2_GN.coefficients] * 2

    def test_chain_rule_evaluates_g_d_minus_one_times(self, monkeypatch):
        _, dfunc, _ = gsl2._closure_functions(FIG2_GN, 4, RepKind.FINITE_CUT)
        calls = []
        monkeypatch.setattr(gsl2, "_horner", lambda c, x: calls.append(len(c)) or charfun._horner(c, x))
        dfunc(0.3)
        assert calls == [2, 3, 2, 3, 2, 3, 2]  # g' four times, g three times


class TestClosureScanDefects:
    """Two d = 1 cuts the grid scan gets wrong; a certified isolator must not."""

    @pytest.mark.xfail(strict=True, reason="the tangent-root heuristic adds the derivative zero")
    def test_close_root_pair_has_no_middle_root(self):
        # x + g(x) + 1 = -(x - a)(x - b); the derivative zero between the
        # roots has residual (gap / 2)^2 ~ 6e-10, inside the 1e-9 test.
        a, b = -2.0, -2.0 + 5e-5
        gn = CharFn((-a * b - 1.0, a + b - 1.0, -1.0), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert sorted(sols.included + sols.excluded) == pytest.approx([a, b], abs=1e-9)

    @pytest.mark.xfail(strict=True, reason="two sign changes inside one grid interval cancel")
    def test_close_simple_roots_are_all_reported(self):
        # x + g(x) + 1 = x (x - 5e-5) (x - 5): the roots 0 and 5e-5 share one
        # grid interval, so the scan sees no sign change there.
        e = 5e-5
        gn = CharFn((-1.0, 5.0 * e - 1.0, -(5.0 + e), 1.0), Orientation.WEIGHT)
        sols = cut_condition_solve(gn, 1)
        assert sorted(sols.included + sols.excluded) == pytest.approx([0.0, e, 5.0], abs=1e-9)


def assert_in_box(value: float, lo: float, hi: float) -> None:
    """``value`` lies in ``[lo, hi]``, or it or a bound is NaN."""
    assert math.isnan(value) or math.isnan(lo) or math.isnan(hi) or lo <= value <= hi


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
            ylo, yhi = (float(b[0]) for b in gsl2._compose_interval(gn, *box, d))
            closures = []
            for kind in (RepKind.FINITE_CUT, RepKind.FINITE_PERIODIC):
                func, _, enclosure = gsl2._closure_functions(gn, d, kind)
                closures.append((func, *(float(b[0]) for b in enclosure(*box))))
            for x in points:
                assert_in_box(gsl2._compose(gn, x, d), ylo, yhi)
                assert_in_box(float(gsl2._compose(gn, np.array([x]), d)[0]), ylo, yhi)
                for func, flo, fhi in closures:
                    assert_in_box(func(x), flo, fhi)
                    assert_in_box(float(func(np.array([x]))[0]), flo, fhi)


class TestSerialization:
    def test_json_round_trip(self):
        rep = build_gsl2(FIG2_GN, ROUNDED_ROOT, 2, RepKind.FINITE_CUT)
        data = json.loads(json.dumps(gsl2_to_dict(rep)))
        assert data["kind"] == "cut"
        assert "cut_residual" in data
        again = gsl2_from_dict(data)
        assert again.weights == rep.weights
        assert again.ladder_sq == rep.ladder_sq
        assert again.kind is rep.kind


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

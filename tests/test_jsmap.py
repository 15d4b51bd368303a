import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gjsmap import (
    CharFn,
    GjsError,
    FixedJ,
    FullGrid,
    Orientation,
    RepKind,
    build_gha,
    build_gsl2,
    build_jsmap,
    build_state_vector,
    cut_condition_solve,
    derive_pairing,
    functional_F,
    functional_G,
    gauss_numbers,
    jsmap_to_dict,
    matrix_Adag,
    reflection_pair,
    two_oscillator_space,
    verify_jsmap_relations,
    verify_map_equals_gsl2,
    verify_pairing_identity,
)
from gjsmap.errors import (
    DescentViolation,
    DimensionMismatch,
    FixedPointVacuum,
    NegativeRadicand,
    OutOfBasis,
    OverflowDiverged,
)
from gjsmap import charfun, gha, gsl2, jsmap
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Q_PARAMETER,
    dense_gsl2,
    dense_jsmap,
    dense_map_residuals,
    dense_weight_residuals,
    identical,
    kron_state_vector,
    q_cut_root,
    random_gha_rep,
    random_gsl2_rep,
    reference_functionals,
    scaled_tol,
    textbook_j0,
    textbook_jplus,
)

BOSON = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
SL2 = CharFn((-1.0, 1.0), Orientation.WEIGHT)
FIG2_GN = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)
FIG4_FN = CharFn((1.0, 3.0, 1.0), Orientation.OSCILLATOR)


SMALL_MODES = [FixedJ(0), FixedJ(1), FixedJ(5), FullGrid(1), FullGrid(2), FullGrid(4)]


def exact_cut_root() -> float:
    return cut_condition_solve(FIG2_GN, 2).included[0]


class TestSpace:
    def test_fixed_j_basis_order(self):
        space = two_oscillator_space(BOSON, 0.0, FixedJ(3))
        assert space.basis == ((3, 0), (2, 1), (1, 2), (0, 3))
        assert space.size == 4

    def test_full_grid_major_order(self):
        space = two_oscillator_space(BOSON, 0.0, FullGrid(2))
        assert space.basis == ((0, 0), (0, 1), (1, 0), (1, 1))

    @pytest.mark.parametrize("mode, error, message", [
        (FixedJ(-1), ValueError, "two_j must be non-negative"),
        (FullGrid(0), ValueError, "grid dimension must be >= 1"),
        (3, TypeError, "unsupported mode 3"),
    ])
    def test_bad_mode_rejected(self, mode, error, message):
        with pytest.raises(error, match=message):
            two_oscillator_space(BOSON, 0.0, mode)

    def test_index_lookup(self):
        space = two_oscillator_space(BOSON, 0.0, FixedJ(2))
        assert space.index_of(1, 1) == 1
        with pytest.raises(OutOfBasis):
            space.index_of(2, 2)

    @pytest.mark.parametrize("mode", SMALL_MODES)
    def test_index_of_is_the_basis_position(self, mode):
        space = two_oscillator_space(BOSON, 0.0, mode)
        for position, (n1, n2) in enumerate(space.basis):
            assert space.index_of(n1, n2) == position

    @pytest.mark.parametrize("mode", SMALL_MODES)
    def test_index_of_rejects_pairs_outside_the_basis(self, mode):
        space = two_oscillator_space(BOSON, 0.0, mode)
        dim = space.gha.dim
        negative = [(-1, 0), (0, -1), (-1, -1), (1, -1), (-1, dim)]
        too_large = [(dim, 0), (0, dim), (dim, dim), (dim, -1), (-1, dim + 1)]
        outside = negative + too_large
        if isinstance(mode, FixedJ):
            # one step off the shell in every direction, from every state
            for n1, n2 in space.basis:
                outside += [(n1 + 1, n2), (n1, n2 + 1), (n1 - 1, n2), (n1, n2 - 1)]
        for n1, n2 in outside:
            with pytest.raises(OutOfBasis):
                space.index_of(n1, n2)


class TestFunctionals:
    def test_standard_limit_G(self):
        space = two_oscillator_space(BOSON, 0.0, FixedJ(4))
        gm = functional_G(space, SL2, 2.0)
        expect = [(n1 - n2) / 2.0 for n1, n2 in space.basis]
        assert list(gm) == expect

    def test_standard_limit_F_is_one(self):
        for two_j in (1, 2, 3, 4):
            space = two_oscillator_space(BOSON, 0.0, FixedJ(two_j))
            fm = functional_F(space, SL2, two_j / 2.0)
            diag = fm
            # every well-posed entry is exactly 1; the n1 = 0 slot multiplies
            # a vanishing ladder product and is pinned to 0 by convention
            assert list(diag[:-1]) == [1.0] * two_j
            assert diag[-1] == 0.0

    def test_highest_weight_entry(self):
        space = two_oscillator_space(FIG4_FN, -0.33479, FixedJ(2))
        gm = functional_G(space, FIG2_GN, 0.33479)
        assert gm[0] == 0.33479

    def test_G_matches_weight_iterates(self):
        root = exact_cut_root()
        space = two_oscillator_space(FIG4_FN, -root, FixedJ(1))
        gm = functional_G(space, FIG2_GN, root)
        assert gm[1] == pytest.approx(FIG2_GN(root), rel=1e-14)

    def test_F_agrees_with_simplified_form_under_pairing(self):
        # with a reflection-paired (fn, gn) and alpha_j = -alpha0 the
        # oscillator Gauss numbers cancel against the weight ones, leaving
        # sqrt(2a+1+Q2[n2+1]) / sqrt(-Q2[n1])
        root = exact_cut_root()
        for two_j in (1, 2):
            space = two_oscillator_space(FIG4_FN, -root, FixedJ(two_j))
            fm = functional_F(space, FIG2_GN, root)
            q2 = FIG2_GN(root) - root
            gg = gauss_numbers(FIG2_GN, root, two_j + 1)
            for m, (n1, n2) in enumerate(space.basis):
                if n1 == 0:
                    continue
                simplified = math.sqrt(2.0 * root + 1.0 + q2 * gg[n2 + 1]) / math.sqrt(
                    -q2 * gg[n1]
                )
                assert fm[m] == pytest.approx(simplified, rel=1e-12)

    def test_negative_radicand_on_observable_state(self):
        # past the two-state cut the weight orbit breaks unitarity, so a
        # 4x4 grid cannot carry real matrices
        root = exact_cut_root()
        with pytest.raises(NegativeRadicand):
            space = two_oscillator_space(FIG4_FN, -root, FullGrid(4))
            functional_F(space, FIG2_GN, root)

    def test_one_state_fixed_point_has_no_gauss_numbers(self):
        # alpha_j = 1 is the fixed point of FIG2_GN; a one-state shell needs no
        # g step yet still takes Q2 as a Gauss denominator, as larger shells do
        space = two_oscillator_space(BOSON, 0.0, FixedJ(0))
        with pytest.raises(FixedPointVacuum):
            functional_G(space, FIG2_GN, 1.0)
        with pytest.raises(FixedPointVacuum):
            functional_F(space, FIG2_GN, 1.0)
        with pytest.raises(DescentViolation):
            build_jsmap(BOSON, 0.0, FIG2_GN, 1.0, FixedJ(0))


class TestBuild:
    def test_standard_spin_one(self):
        rep = build_jsmap(BOSON, 0.0, SL2, 1.0, FixedJ(2))
        assert np.array_equal(rep.s_z.entries, np.diag([1.0, 0.0, -1.0]))
        s2 = math.sqrt(2.0)
        assert rep.s_plus.entries[0, 1] == pytest.approx(s2, rel=1e-15)
        assert rep.s_plus.entries[1, 2] == pytest.approx(s2, rel=1e-15)

    def test_one_state_shell(self):
        rep = build_jsmap(FIG4_FN, -0.2, FIG2_GN, 0.2, FixedJ(0))
        assert rep.s_z.entries.shape == (1, 1)
        assert rep.s_z.entries[0, 0] == 0.2
        assert rep.s_plus.entries[0, 0] == 0.0
        assert rep.s_minus.entries[0, 0] == 0.0

    def test_adjoint_structure_exact(self):
        root = exact_cut_root()
        rep = build_jsmap(FIG4_FN, -root, FIG2_GN, root, FixedJ(1))
        assert np.array_equal(rep.s_minus.entries, rep.s_plus.entries.T)

    def test_cut_two_state_raising_entry(self):
        root = exact_cut_root()
        rep = build_jsmap(FIG4_FN, -root, FIG2_GN, root, FixedJ(1))
        q2 = rep.q2
        expect = math.sqrt(-q2 * (2.0 * root + 1.0 + q2))
        assert rep.s_plus.entries[0, 1] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("mode", [FullGrid(5), FixedJ(4)])
    def test_hop_is_kron_of_ladders(self, mode):
        # A1+ A2 is kron(Adag, A) on the full grid; a shell keeps the rows and
        # columns of its own states
        space = two_oscillator_space(FIG4_FN, -0.15, mode)
        adag = matrix_Adag(space.gha).entries
        picks = [n1 * space.gha.dim + n2 for n1, n2 in space.basis]
        expect = np.kron(adag, adag.T)[np.ix_(picks, picks)]
        offset, hop = jsmap._hop(space)
        assert np.array_equal(np.diag(hop, offset), expect)
        assert np.array_equal(np.diag(hop, -offset), expect.T)

    def test_q2_must_be_negative(self):
        rising = CharFn((1.0, 1.0), Orientation.WEIGHT)
        with pytest.raises(DescentViolation):
            build_jsmap(BOSON, 0.0, rising, 0.0, FixedJ(1))

    def test_shell_conservation_on_full_grid(self):
        rep = build_jsmap(BOSON, 0.0, SL2, 4.0, FullGrid(4))
        total = np.diag([n1 + n2 for n1, n2 in rep.space.basis]).astype(float)
        for mat in (rep.s_z.entries, rep.s_plus.entries, rep.s_minus.entries):
            comm = mat @ total - total @ mat
            assert np.max(np.abs(comm)) <= 1e-12


class TestOrbitPasses:
    """Each characteristic function is iterated once per build, never by verification."""

    @pytest.fixture
    def orbit_calls(self, monkeypatch):
        calls = []

        def counting(fn, *args, **kwargs):
            calls.append(fn.coefficients)
            return charfun.iterate(fn, *args, **kwargs)

        for module in (gha, gsl2, jsmap):
            if hasattr(module, "iterate"):
                monkeypatch.setattr(module, "iterate", counting)
        return calls

    @pytest.mark.parametrize("mode", [FixedJ(6), FullGrid(4)])
    def test_build_iterates_once_per_side(self, orbit_calls, mode):
        build_jsmap(BOSON, 0.0, SL2, 3.0, mode)
        assert sorted(orbit_calls) == sorted([BOSON.coefficients, SL2.coefficients])

    def test_verification_iterates_nothing(self, orbit_calls):
        rep = build_jsmap(BOSON, 0.0, SL2, 3.0, FixedJ(6))
        orbit_calls.clear()
        assert verify_jsmap_relations(rep, tol=1e-12).passed
        assert orbit_calls == []


class TestSharedOrbit:
    """A ``jsmap verify`` builds the direct representation on the map's ``g`` orbit."""

    @staticmethod
    def outcome(build) -> tuple:
        try:
            rep = build()
        except GjsError as exc:
            return (type(exc), str(exc), [x.hex() for x in exc.iterates])
        return ("rep", rep.weights.tobytes(), rep.ladder_sq.tobytes(), rep.next_weight.hex())

    # g = x - 1 from alpha_j = 1 runs 1, 0, -1, -2: a bound of 0.5 stops the start value, 1.0
    # (which keeps the values on it) and 1.5 stop -2.0, and 2.0 keeps the whole orbit.
    @pytest.mark.parametrize("bound", [0.5, 1.0, 1.5, 2.0, math.inf])
    def test_same_representation_or_same_divergence(self, bound):
        _, orbit = jsmap._build_jsmap(BOSON, -1.0, SL2, 1.0, FixedJ(2), math.inf)
        tol, cut = gsl2.CUT_ACCEPT_TOL, RepKind.FINITE_CUT
        shared = self.outcome(lambda: gsl2._build_gsl2(SL2, 1.0, 3, cut, tol, bound, orbit))
        own = self.outcome(lambda: build_gsl2(SL2, 1.0, 3, cut, bound=bound))
        assert shared == own
        assert shared[0] == ("rep" if bound >= 2.0 else OverflowDiverged)


class TestDenseReference:
    """The diagonal forms equal the dense matmul formulas bit for bit."""

    def test_random_shells_and_grids(self):
        rng = np.random.default_rng(59)
        modes = [FixedJ(0), FullGrid(1)]
        modes += [FixedJ(int(n)) for n in rng.integers(1, 13, 20)]
        modes += [FullGrid(int(n)) for n in rng.integers(2, 9, 10)]
        for mode in modes:
            osc, weight = random_gha_rep(rng), random_gsl2_rep(rng)
            gn, alpha_j = weight.gn, weight.alpha_j
            rep = build_jsmap(osc.fn, osc.alpha0, gn, alpha_j, mode)
            g_ref, f_ref = reference_functionals(rep.space, gn, alpha_j)
            assert identical(functional_G(rep.space, gn, alpha_j), g_ref)
            assert identical(functional_F(rep.space, gn, alpha_j), f_ref)
            dense = dense_jsmap(rep.space, gn, alpha_j)
            for got, want in zip((rep.s_z, rep.s_plus, rep.s_minus, rep.s_sq), dense):
                assert identical(got.entries, want)
            if isinstance(mode, FullGrid):
                continue
            direct = build_gsl2(gn, alpha_j, rep.dim, RepKind.TRUNCATED_INFINITE)
            report = verify_map_equals_gsl2(rep, direct)
            assert tuple(report.residuals.values()) == dense_map_residuals(
                dense, dense_gsl2(direct)
            )
            for ncols in range(1, rep.dim + 1):
                got = jsmap._weight_residuals(
                    rep.s_z.values, rep.s_plus, rep.s_minus, gn, ncols
                )
                assert got == dense_weight_residuals(*dense[:3], gn, ncols)


class TestScale:
    def test_schwinger_shell_of_100001_states(self):
        # j = 50000: dense matrices of this size would need 80 GB each
        two_j = 100_000
        j = two_j / 2.0
        rep = build_jsmap(BOSON, 0.0, SL2, j, FixedJ(two_j))
        direct = build_gsl2(SL2, j, two_j + 1, RepKind.FINITE_CUT)
        tol = scaled_tol(j * (j + 1.0))
        assert verify_map_equals_gsl2(rep, direct, tol=tol).passed
        assert verify_jsmap_relations(rep, tol=tol).passed


class TestReadOnlyDiagonals:
    """Representations hold the read-only float64 arrays their builds make."""

    def test_stored_diagonals_are_read_only_float_arrays(self):
        gha_rep = build_gha(BOSON, 0.0, 5)
        gsl2_rep = build_gsl2(SL2, 2.0, 5, RepKind.FINITE_CUT)
        stored = {
            "eigenvalues": gha_rep.eigenvalues,
            "ladder": gha_rep.ladder,
            "weights": gsl2_rep.weights,
            "ladder_sq": gsl2_rep.ladder_sq,
            "space ladder": two_oscillator_space(BOSON, 0.0, FullGrid(3)).gha.ladder,
        }
        for name, values in stored.items():
            assert isinstance(values, np.ndarray) and values.dtype == np.float64, name
            assert not values.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0

    def test_builds_hold_eight_bytes_per_entry(self):
        dim = 20_001
        tracemalloc.start()
        try:
            oscillator = build_gha(BOSON, 0.0, dim)
            weight = build_gsl2(SL2, 10_000.0, dim, RepKind.FINITE_CUT)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        diagonals = (oscillator.eigenvalues, oscillator.ladder, weight.weights, weight.ladder_sq)
        entries = sum(map(len, diagonals))
        assert entries == 4 * dim - 2
        assert held <= 1.25 * 8 * entries, held


class TestMapEqualsDirect:
    def test_standard_limit_matches_textbook(self):
        for two_j in (1, 2, 3, 4):
            j = two_j / 2.0
            rep = build_jsmap(BOSON, 0.0, SL2, j, FixedJ(two_j))
            direct = build_gsl2(SL2, j, two_j + 1, RepKind.FINITE_CUT)
            report = verify_map_equals_gsl2(rep, direct, tol=1e-12)
            assert report.passed
            assert np.max(np.abs(rep.s_plus.entries - textbook_jplus(two_j))) <= 1e-12
            assert np.max(np.abs(rep.s_z.entries - textbook_j0(two_j))) <= 1e-12

    def test_paired_quadratic_two_state(self):
        root = exact_cut_root()
        rep = build_jsmap(FIG4_FN, -root, FIG2_GN, root, FixedJ(1))
        direct = build_gsl2(FIG2_GN, root, 2, RepKind.FINITE_CUT, cut_tol=1e-9)
        report = verify_map_equals_gsl2(rep, direct, tol=1e-10)
        assert report.passed

    def test_truncated_infinite_shell(self):
        # general pair: linear oscillator function against the quadratic
        # weight function, eight states, no closure
        alpha_j = 1.2
        rep = build_jsmap(BOSON, 0.0, FIG2_GN, alpha_j, FixedJ(7))
        direct = build_gsl2(FIG2_GN, alpha_j, 8, RepKind.TRUNCATED_INFINITE)
        report = verify_map_equals_gsl2(rep, direct, tol=1e-10)
        assert report.passed

    def test_paired_truncated_shell(self):
        alpha_j = 1.2
        rep = build_jsmap(FIG4_FN, -alpha_j, FIG2_GN, alpha_j, FixedJ(7))
        direct = build_gsl2(FIG2_GN, alpha_j, 8, RepKind.TRUNCATED_INFINITE)
        assert verify_map_equals_gsl2(rep, direct, tol=1e-10).passed

    def test_dimension_mismatch(self):
        rep = build_jsmap(BOSON, 0.0, SL2, 1.0, FixedJ(2))
        direct = build_gsl2(SL2, 1.0, 2, RepKind.TRUNCATED_INFINITE)
        with pytest.raises(DimensionMismatch):
            verify_map_equals_gsl2(rep, direct)

    def test_mismatched_weight_data_rejected(self):
        rep = build_jsmap(BOSON, 0.0, SL2, 1.0, FixedJ(2))
        direct = build_gsl2(SL2, 1.5, 3, RepKind.TRUNCATED_INFINITE)
        with pytest.raises(ValueError):
            verify_map_equals_gsl2(rep, direct)
        direct = build_gsl2(CharFn((-1.0, 0.5), Orientation.WEIGHT), 1.0, 3,
                            RepKind.TRUNCATED_INFINITE)
        with pytest.raises(ValueError, match="different gn or alpha_j"):
            verify_map_equals_gsl2(rep, direct)

    def test_grid_rejected(self):
        rep = build_jsmap(BOSON, 0.0, SL2, 1.0, FullGrid(2))
        direct = build_gsl2(SL2, 1.0, 3, RepKind.TRUNCATED_INFINITE)
        with pytest.raises(DimensionMismatch, match="needs a fixed-j shell"):
            verify_map_equals_gsl2(rep, direct)


class TestRelationsFromMap:
    def test_cut_shell_closed_columns(self):
        root = exact_cut_root()
        rep = build_jsmap(FIG4_FN, -root, FIG2_GN, root, FixedJ(1))
        report = verify_jsmap_relations(rep, tol=1e-10)
        assert report.passed

    def test_truncated_shell_interior_columns(self):
        rep = build_jsmap(BOSON, 0.0, FIG2_GN, 1.2, FixedJ(7))
        report = verify_jsmap_relations(rep, tol=1e-10)
        assert report.passed

    def test_standard_limit(self):
        rep = build_jsmap(BOSON, 0.0, SL2, 2.0, FixedJ(4))
        assert verify_jsmap_relations(rep, tol=1e-12).passed

    @pytest.mark.parametrize("mode, message", [
        (FullGrid(2), "defined on a fixed-j shell"),
        (FixedJ(0), "need at least 2 states"),
    ])
    def test_grid_and_single_state_rejected(self, mode, message):
        with pytest.raises(ValueError, match=message):
            verify_jsmap_relations(build_jsmap(BOSON, 0.0, SL2, 1.0, mode))

    def test_relations_use_the_stored_lowering_operator(self):
        rep = build_jsmap(BOSON, 0.0, SL2, 1.0, FixedJ(2))
        values = np.array(rep.s_minus.values)
        values[0] += 0.01  # entry (1, 0)
        skewed = replace(rep, s_minus=replace(rep.s_minus, values=values))
        report = verify_jsmap_relations(skewed, tol=1e-12)
        assert not report.passed
        assert report.residuals["commutator"] > 1e-3

    def test_closes_decides_the_checked_columns(self):
        root = exact_cut_root()
        cut = build_jsmap(FIG4_FN, -root, FIG2_GN, root, FixedJ(1))
        schwinger = build_jsmap(BOSON, 0.0, SL2, 2.0, FixedJ(4))
        truncated = build_jsmap(BOSON, 0.0, FIG2_GN, 1.2, FixedJ(7))
        assert cut.closes and schwinger.closes and not truncated.closes
        # the last column of a truncated shell misses the lowering past its end
        report = verify_jsmap_relations(replace(truncated, closes=True), tol=1e-10)
        assert not report.passed
        assert report.residuals["commutator"] > 0.1
        assert verify_jsmap_relations(replace(cut, closes=False), tol=1e-10).passed


class TestCasimirFromMap:
    def test_constant_on_closed_shells(self):
        root = exact_cut_root()
        rep = build_jsmap(FIG4_FN, -root, FIG2_GN, root, FixedJ(1))
        expect = root * (root + 1.0)
        assert np.diag(rep.s_sq.entries) == pytest.approx([expect] * 2, rel=1e-10)
        off = rep.s_sq.entries - np.diag(np.diag(rep.s_sq.entries))
        assert np.max(np.abs(off)) <= 1e-12

    def test_standard_limit_values(self):
        for two_j in (1, 2, 3, 4):
            j = two_j / 2.0
            rep = build_jsmap(BOSON, 0.0, SL2, j, FixedJ(two_j))
            assert np.diag(rep.s_sq.entries) == pytest.approx(
                [j * (j + 1.0)] * (two_j + 1), rel=1e-12
            )


class TestPairing:
    def test_fig4_configuration(self):
        gn, alpha_j = derive_pairing(FIG4_FN, -0.15)
        assert gn == FIG2_GN
        assert alpha_j == 0.15
        report = verify_pairing_identity(FIG4_FN, -0.15, 10, tol=1e-10)
        assert report.passed
        assert report.fixed_point_f == pytest.approx(-1.0, abs=1e-12)
        assert report.fixed_point_g == pytest.approx(1.0, abs=1e-12)
        assert report.reflection_residual <= 1e-12

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="m_max must be non-negative"):
            verify_pairing_identity(FIG4_FN, -0.15, -1)

    def test_linear_pairing_gives_integers(self):
        gn, alpha_j = derive_pairing(BOSON, 0.4)
        report = verify_pairing_identity(BOSON, 0.4, 12, tol=1e-12)
        assert report.passed
        numbers = gauss_numbers(gn, alpha_j, 6)
        assert numbers == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_randomized_cubic_pairings(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 5:
            coeffs = (
                1.0,
                rng.uniform(0.5, 1.5),
                rng.uniform(-0.2, 0.2),
                rng.uniform(-0.05, 0.05),
            )
            alpha0 = rng.uniform(-0.5, 0.5)
            fn = CharFn(coeffs, Orientation.OSCILLATOR)
            gn, alpha_j = derive_pairing(fn, alpha0)
            # oracle: iterate both cubics directly and compare the two sides
            xs = [alpha0]
            ys = [alpha_j]
            for _ in range(10):
                xs.append(fn(xs[-1]))
                ys.append(gn(ys[-1]))
            if any(abs(v) > 1e40 for v in xs):
                continue
            m0_sq = xs[1] - xs[0]
            q2 = ys[1] - ys[0]
            for m in range(11):
                lhs = -q2 * (ys[m] - ys[0]) / q2
                rhs = m0_sq * (xs[m] - xs[0]) / m0_sq
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
            report = verify_pairing_identity(fn, alpha0, 10, tol=1e-10)
            assert report.passed
            checked += 1

    def test_quadratic_pair_without_real_fixed_points(self):
        fn = CharFn((2.0, 3.0, 1.0), Orientation.OSCILLATOR)
        report = verify_pairing_identity(fn, 0.0, 5, tol=1e-10)
        assert report.passed
        assert report.fixed_point_f is None
        assert report.fixed_point_g is None
        assert report.reflection_residual is None


class TestStateVectors:
    def test_vacuum(self):
        space = two_oscillator_space(BOSON, 0.0, FullGrid(3))
        vec = build_state_vector(space, 0, 0)
        expect = np.zeros(9)
        expect[0] = 1.0
        assert np.array_equal(vec, expect)

    def test_boson_normalization_cancels(self):
        space = two_oscillator_space(BOSON, 0.0, FullGrid(4))
        vec = build_state_vector(space, 2, 1)
        expect = np.zeros(16)
        expect[space.index_of(2, 1)] = 1.0
        assert np.max(np.abs(vec - expect)) <= 1e-10

    def test_deformed_normalization(self):
        space = two_oscillator_space(FIG4_FN, -0.15, FullGrid(3))
        vec = build_state_vector(space, 1, 1)
        expect = np.zeros(9)
        expect[space.index_of(1, 1)] = 1.0
        assert np.max(np.abs(vec - expect)) <= 1e-10

    @pytest.mark.parametrize("fn, alpha0", [(BOSON, 0.0), (FIG4_FN, -0.15), (BOSON, 0.25)])
    def test_equals_kron_construction(self, fn, alpha0):
        for dim in range(2, 7):
            space = two_oscillator_space(fn, alpha0, FullGrid(dim))
            for n1, n2 in space.basis:
                want = kron_state_vector(space, n1, n2)
                assert identical(build_state_vector(space, n1, n2), want)

    @pytest.mark.parametrize(
        "fn, alpha0, dim, state",
        [
            (BOSON, 0.0, 201, (200, 199)),  # [200]! overflows amplitude and norm
            (CharFn((1.0, 1e3), Orientation.OSCILLATOR), 1e3, 60, (59, 59)),  # M0**118
        ],
    )
    def test_overflow_is_an_error(self, fn, alpha0, dim, state):
        space = two_oscillator_space(fn, alpha0, FullGrid(dim), bound=math.inf)
        with pytest.raises(GjsError, match=rf"state \({state[0]}, {state[1]}\)"):
            build_state_vector(space, *state)

    def test_norm_survives_factorial_overflow(self):
        # [100]! [99]! overflows, sqrt([100]!) sqrt([99]!) does not
        space = two_oscillator_space(BOSON, 0.0, FullGrid(201), bound=math.inf)
        vec = build_state_vector(space, 100, 99)
        index = space.index_of(100, 99)
        assert vec[index] == pytest.approx(1.0, rel=1e-14)
        assert np.count_nonzero(vec) == 1

    def test_out_of_basis(self):
        space = two_oscillator_space(BOSON, 0.0, FullGrid(2))
        with pytest.raises(OutOfBasis):
            build_state_vector(space, 5, 0)
        shell = two_oscillator_space(BOSON, 0.0, FixedJ(2))
        with pytest.raises(OutOfBasis):
            build_state_vector(shell, 1, 1)


class TestSerialization:
    def test_dict_export(self):
        rep = build_jsmap(BOSON, 0.0, SL2, 1.0, FixedJ(2))
        data = jsmap_to_dict(rep)
        assert data["mode"] == {"kind": "fixed_j", "two_j": 2}
        assert data["basis"] == [[2, 0], [1, 1], [0, 2]]
        assert data["matrices"]["s_z"][0][0] == 1.0
        assert len(data["matrices"]["s_plus"]) == 3


class TestQOscillatorMap:
    """The map of the q-oscillator pair f = q x + 1, g = q x - 1 at the cut root."""

    @given(q=Q_PARAMETER, two_j=st.integers(1, 24), alpha0=st.floats(-2.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_map_equals_direct(self, q, two_j, alpha0):
        fn = CharFn((1.0, q), Orientation.OSCILLATOR)
        gn = CharFn((-1.0, q), Orientation.WEIGHT)
        alpha_j = q_cut_root(q, two_j + 1)
        casimir = alpha_j * (alpha_j + 1.0)
        tol = scaled_tol(casimir)
        mapped = build_jsmap(fn, alpha0, gn, alpha_j, FixedJ(two_j))
        direct = build_gsl2(gn, alpha_j, two_j + 1, RepKind.FINITE_CUT)
        assert verify_map_equals_gsl2(mapped, direct, tol=tol).passed
        assert verify_jsmap_relations(mapped, tol=tol).passed
        assert np.max(np.abs(np.diag(mapped.s_sq.entries) - casimir)) <= tol

import csv
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjsmap import (
    CharFn,
    OperatorMatrix,
    Orientation,
    build_gha,
    casimir_gha,
    charfn_from_dict,
    gauss_factorial,
    gauss_numbers,
    gha_to_dict,
    matrix_A,
    matrix_Adag,
    matrix_H,
    matrix_N,
    verify_gha_relations,
    write_matrix_csv,
)
from gjsmap.errors import (
    FixedPointVacuum,
    InvalidVacuum,
    NegativeNormSquared,
    OverflowDiverged,
)
from gjsmap.gha import gha_csv_labels
from helpers import dense_gha, gauss_number_fraction, identical, random_gha_rep, scaled_tol

BOSON = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
FIG1_FN = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
FIG4_FN = CharFn((1.0, 3.0, 1.0), Orientation.OSCILLATOR)


class TestBuild:
    def test_standard_oscillator(self):
        rep = build_gha(BOSON, 0.0, 4)
        assert rep.eigenvalues.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert rep.ladder == pytest.approx(
            (1.0, math.sqrt(2.0), math.sqrt(3.0)), rel=1e-15
        )

    def test_one_dimensional_at_fixed_point(self):
        rep = build_gha(FIG1_FN, 0.7, 3)
        assert rep.eigenvalues == pytest.approx((0.7, 0.7, 0.7), abs=1e-12)
        assert rep.ladder == pytest.approx((0.0, 0.0), abs=1e-7)

    def test_derived_two_level_example(self):
        rep = build_gha(FIG4_FN, -0.15, 2)
        assert rep.eigenvalues == pytest.approx((-0.15, 0.5725), rel=1e-14)
        assert rep.ladder[0] ** 2 == pytest.approx(0.7225, rel=1e-14)
        assert rep.ladder[0] == pytest.approx(0.85, rel=1e-14)

    def test_vacuum_outside_region_rejected(self):
        with pytest.raises(InvalidVacuum):
            build_gha(FIG1_FN, 0.4, 3)
        with pytest.raises(InvalidVacuum):
            build_gha(FIG1_FN, 0.5, 3)

    def test_negative_norm_rejected(self):
        # f(x) = x - 1 drops below the vacuum immediately
        falling = CharFn((-1.0, 1.0), Orientation.OSCILLATOR)
        with pytest.raises(NegativeNormSquared):
            build_gha(falling, 0.0, 2)

    def test_weight_function_rejected(self):
        with pytest.raises(ValueError):
            build_gha(CharFn((-1.0, 1.0), Orientation.WEIGHT), 0.0, 2)

    def test_divergence_bound_propagates(self):
        with pytest.raises(OverflowDiverged):
            build_gha(FIG4_FN, -0.33479, 10, bound=1e12)


class TestMatrices:
    def test_boson_matrices(self):
        rep = build_gha(BOSON, 0.0, 3)
        adag = matrix_Adag(rep).entries
        assert adag[1, 0] == 1.0
        assert adag[2, 1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert np.count_nonzero(adag) == 2

    def test_lowering_is_exact_transpose(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            rep = random_gha_rep(rng)
            assert np.array_equal(matrix_A(rep).entries, matrix_Adag(rep).entries.T)

    def test_annihilates_vacuum(self):
        rep = build_gha(FIG1_FN, 0.56, 5)
        assert np.all(matrix_A(rep).entries[:, 0] == 0.0)

    def test_h_diagonal_from_iterates(self):
        rep = build_gha(FIG1_FN, 0.56, 2)
        h = matrix_H(rep).entries
        assert h[0, 0] == 0.56
        assert h[1, 1] == pytest.approx(0.609, rel=1e-12)
        assert h[0, 1] == h[1, 0] == 0.0

    def test_number_operator(self):
        rep = build_gha(BOSON, 0.0, 4)
        assert np.array_equal(matrix_N(rep).entries, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_matrices_are_read_only(self):
        rep = build_gha(BOSON, 0.0, 3)
        with pytest.raises(ValueError):
            matrix_H(rep).entries[0, 0] = 5.0


class TestCasimir:
    def test_boson_limit_is_zero(self):
        rep = build_gha(BOSON, 0.0, 5)
        assert np.max(np.abs(casimir_gha(rep).entries)) <= 1e-14

    def test_derived_examples(self):
        rep = build_gha(FIG4_FN, -0.15, 3)
        c = casimir_gha(rep).entries
        assert np.diag(c) == pytest.approx([0.15] * 3, rel=1e-12)
        rep2 = build_gha(FIG1_FN, 0.7, 4)
        assert np.diag(casimir_gha(rep2).entries) == pytest.approx(
            [-0.7] * 4, rel=1e-12
        )

    def test_constancy_on_random_reps(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rep = random_gha_rep(rng)
            c = casimir_gha(rep).entries
            assert np.diag(c) == pytest.approx(
                [-rep.alpha0] * rep.dim, rel=1e-12, abs=1e-12
            )
            off = c - np.diag(np.diag(c))
            assert np.max(np.abs(off)) <= 1e-14


class TestGaussNumbers:
    def test_integers_for_boson(self):
        assert gauss_numbers(BOSON, 0.25, 5)[5] == pytest.approx(5.0, rel=1e-15)

    def test_first_two_values(self):
        assert gauss_numbers(FIG4_FN, -0.15, 0)[0] == 0.0
        assert gauss_numbers(FIG4_FN, -0.15, 1)[1] == 1.0

    def test_exact_rational_oracle(self):
        coeffs = (Fraction(1), Fraction(3), Fraction(1))
        expect = gauss_number_fraction(coeffs, Fraction(-3, 20), 2)
        assert float(expect) == pytest.approx(4.4225, rel=1e-15)
        assert gauss_numbers(FIG4_FN, -0.15, 2)[2] == pytest.approx(
            float(expect), rel=1e-13
        )

    def test_factorial(self):
        assert gauss_factorial(BOSON, 0.0, 0) == 1.0
        assert gauss_factorial(BOSON, 0.0, 4) == pytest.approx(24.0, rel=1e-14)
        expect = 1.0 * gauss_numbers(FIG4_FN, -0.15, 2)[2]
        assert gauss_factorial(FIG4_FN, -0.15, 2) == pytest.approx(expect, rel=1e-14)

    def test_sequence_matches_singletons(self):
        seq = gauss_numbers(FIG4_FN, -0.15, 6)
        for m, value in enumerate(seq):
            assert value == gauss_numbers(FIG4_FN, -0.15, m)[m]

    def test_fixed_point_vacuum_rejected(self):
        with pytest.raises(FixedPointVacuum):
            gauss_numbers(FIG1_FN, 0.7, 3)[3]

    def test_ladder_gauss_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            rep = random_gha_rep(rng)
            m0_sq = rep.eigenvalues[1] - rep.eigenvalues[0]
            numbers = gauss_numbers(rep.fn, rep.alpha0, rep.dim - 1)
            for m in range(1, rep.dim):
                assert rep.ladder[m - 1] ** 2 == pytest.approx(
                    m0_sq * numbers[m], rel=1e-12, abs=1e-12
                )


class TestRelations:
    def test_residuals_tiny_on_valid_rep(self):
        rep = build_gha(FIG1_FN, 0.56, 6)
        report = verify_gha_relations(rep, tol=1e-10)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_boson_commutator_is_identity_inside(self):
        rep = build_gha(BOSON, 0.0, 5)
        adag = matrix_Adag(rep).entries
        comm = adag.T @ adag - adag @ adag.T
        assert np.allclose(comm[:, :4], np.eye(5)[:, :4], atol=1e-14)

    def test_randomized_suite(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rep = random_gha_rep(rng)
            assert verify_gha_relations(rep, tol=1e-10).passed

    def test_corrupted_ladder_fails(self):
        from dataclasses import replace

        rep = build_gha(FIG1_FN, 0.56, 4)
        bad = replace(rep, ladder=np.r_[rep.ladder[0] + 0.1, rep.ladder[1:]])
        assert not verify_gha_relations(bad, tol=1e-10).passed

    def test_dim_one_rejected(self):
        rep = build_gha(BOSON, 0.0, 1)
        with pytest.raises(ValueError):
            verify_gha_relations(rep)


class TestDenseReference:
    """The diagonal forms equal the dense matmul formulas bit for bit."""

    def test_random_reps(self):
        rng = np.random.default_rng(43)
        reps = [build_gha(BOSON, 0.0, 1)] + [random_gha_rep(rng) for _ in range(30)]
        for rep in reps:
            h, adag, casimir, residuals = dense_gha(rep)
            assert identical(matrix_H(rep).entries, h)
            assert identical(matrix_Adag(rep).entries, adag)
            assert identical(matrix_A(rep).entries, adag.T)
            assert identical(matrix_N(rep).entries, np.diag(np.arange(rep.dim, dtype=float)))
            assert identical(casimir_gha(rep).entries, casimir)
            if rep.dim >= 2:
                assert tuple(verify_gha_relations(rep).residuals.values()) == residuals

    def test_perturbed_reps(self):
        from dataclasses import replace

        rng = np.random.default_rng(47)
        for _ in range(30):
            rep = random_gha_rep(rng)
            i = int(rng.integers(0, rep.dim - 1))
            ladder, eigenvalues = list(rep.ladder), list(rep.eigenvalues)
            ladder[i] += rng.normal()
            eigenvalues[i + 1] += rng.normal()
            for bad in (replace(rep, ladder=np.array(ladder)),
                        replace(rep, eigenvalues=np.array(eigenvalues))):
                report = verify_gha_relations(bad)
                assert tuple(report.residuals.values()) == dense_gha(bad)[3]


class TestScale:
    def test_boson_ladder_of_200000_levels(self):
        # dense matrices of this size would need 320 GB each
        rep = build_gha(BOSON, 0.0, 200_000)
        report = verify_gha_relations(rep, tol=scaled_tol(rep.eigenvalues[-1]))
        assert report.passed


class TestStateConstruction:
    @given(n=st.integers(0, 7))
    @settings(max_examples=8, deadline=None)
    def test_raised_vacuum_reproduces_basis_vector(self, n):
        for rep in (build_gha(FIG1_FN, 0.56, 9), build_gha(BOSON, 0.25, 9)):
            adag = matrix_Adag(rep).entries
            vec = np.zeros(rep.dim)
            vec[0] = 1.0
            for _ in range(n):
                vec = adag @ vec
            m0 = rep.ladder[0]
            norm = m0**n * math.sqrt(gauss_factorial(rep.fn, rep.alpha0, n))
            got = vec / norm
            expect = np.zeros(rep.dim)
            expect[n] = 1.0
            assert np.max(np.abs(got - expect)) <= 1e-10


class TestSpectrumMonotone:
    def test_convergent_region_spectrum(self):
        rep = build_gha(FIG1_FN, 0.56, 10)
        ev = rep.eigenvalues
        assert all(a < b for a, b in zip(ev, ev[1:]))
        star = 0.7
        assert all(v < star for v in ev)


class TestSerialization:
    def test_json_round_trip(self):
        rep = build_gha(FIG4_FN, -0.15, 4)
        data = json.loads(json.dumps(gha_to_dict(rep)))
        assert data["eigenvalues"] == rep.eigenvalues.tolist()
        assert data["ladder"] == rep.ladder.tolist()
        assert charfn_from_dict(data["fn"]) == rep.fn

    def test_csv_export(self, tmp_path):
        rep = build_gha(BOSON, 0.0, 3)
        path = tmp_path / "h.csv"
        write_matrix_csv(matrix_H(rep), path, gha_csv_labels(rep))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0].startswith("basis: ")
        assert rows[0][1:] == ["|0>", "|1>", "|2>"]
        values = [[float(v) for v in row[1:]] for row in rows[1:]]
        assert values == [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_csv_labels_must_match_the_matrix(self, tmp_path):
        rep = build_gha(BOSON, 0.0, 3)
        path = tmp_path / "h.csv"
        with pytest.raises(ValueError, match="2 state labels for a 3-state matrix"):
            write_matrix_csv(matrix_H(rep), path, ("levels", ("|0>", "|1>")))
        assert not path.exists()

    def test_operator_matrix_is_values_and_offset(self):
        assert [f.name for f in dataclasses.fields(OperatorMatrix)] == ["values", "offset"]

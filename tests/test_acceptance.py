"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines alongside the pytest report.
"""

import json

import numpy as np
import pytest

from gjsmap import (
    CharFn,
    FixedJ,
    Orientation,
    RepKind,
    build_gha,
    build_gsl2,
    build_jsmap,
    casimir_gha,
    casimir_gsl2,
    cut_condition_solve,
    derive_pairing,
    evaluate,
    figure_bundle,
    functional_F,
    functional_G,
    two_oscillator_space,
    verify_gha_relations,
    verify_gsl2_relations,
    verify_map_equals_gsl2,
    verify_pairing_identity,
)
from gjsmap.cli import main as cli_main
from helpers import random_gha_rep, random_gsl2_rep, textbook_j0, textbook_jplus

FN_FIG1 = '{"coefficients":[1.225,-2.5,2.5],"orientation":"oscillator"}'
FN_FIG4 = '{"coefficients":[1,3,1],"orientation":"oscillator"}'
GN_FIG2 = '{"coefficients":[-1,3,-1],"orientation":"weight"}'
BOSON_JSON = '{"coefficients":[1,1],"orientation":"oscillator"}'
SL2_JSON = '{"coefficients":[-1,1],"orientation":"weight"}'

BOSON = CharFn((1.0, 1.0), Orientation.OSCILLATOR)
SL2 = CharFn((-1.0, 1.0), Orientation.WEIGHT)
FIG1 = CharFn((1.225, -2.5, 2.5), Orientation.OSCILLATOR)
FIG2 = CharFn((-1.0, 3.0, -1.0), Orientation.WEIGHT)
FIG4 = CharFn((1.0, 3.0, 1.0), Orientation.OSCILLATOR)


def _cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, json.loads(out.out) if out.out.strip() else None


def _verdict(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_fixed_points(capsys):
    code, fig1 = _cli(capsys, "charfun", "analyze", "--fn", FN_FIG1)
    assert code == 0
    assert abs(fig1["fixed_points"][0]["location"] - 0.7) <= 1e-9
    assert abs(fig1["discriminant"]) <= 1e-9
    assert fig1["boundary"] == 0.5

    code, fig2 = _cli(capsys, "charfun", "analyze", "--fn", GN_FIG2)
    assert code == 0
    assert abs(fig2["fixed_points"][0]["location"] - 1.0) <= 1e-9
    assert fig2["boundary"] == 1.5

    code, fig4 = _cli(capsys, "charfun", "analyze", "--fn", FN_FIG4)
    assert code == 0
    star = fig4["fixed_points"][0]["location"]
    assert abs(star - (-1.0)) <= 1e-9
    bar_star = fig2["fixed_points"][0]["location"]
    assert bar_star == -star  # mirror relation, exact
    _verdict(1, "fixed points and boundaries")


def test_criterion_2_cut_condition(capsys):
    code, payload = _cli(capsys, "gsl2", "cut", "--gn", GN_FIG2, "--d", "2")
    assert code == 0
    (included,) = payload["included"]
    (excluded,) = payload["excluded"]
    assert abs(included - 0.33479) <= 1e-4
    assert abs(excluded - 2.9228) <= 1e-3
    residual = included + evaluate(FIG2, evaluate(FIG2, included)) + 1.0
    assert abs(residual) <= 1e-9
    _verdict(2, "two-state cut roots")


def test_criterion_3_central_theorem(capsys):
    root = cut_condition_solve(FIG2, 2).included[0]
    code, payload = _cli(
        capsys,
        "jsmap",
        "verify",
        "--fn",
        FN_FIG4,
        "--alpha0",
        repr(-root),
        "--gn",
        GN_FIG2,
        "--alphaj",
        repr(root),
        "--j",
        "1/2",
        "--tol",
        "1e-10",
        "--kind",
        "cut",
        "--cut-tol",
        "1e-9",
    )
    assert code == 0
    assert payload["passed"] is True
    assert payload["map_vs_direct"]["max_residual"] <= 1e-10
    assert payload["relations"]["max_residual"] <= 1e-10
    _verdict(3, "map equals direct representation at the cut root")


def test_criterion_4_standard_limit():
    for two_j in (1, 2, 3, 4):
        j = two_j / 2.0
        space = two_oscillator_space(BOSON, 0.0, FixedJ(two_j))
        f_diag = functional_F(space, SL2, j)
        g_diag = functional_G(space, SL2, j)
        # F is exactly 1 on every state whose entry is observable; the
        # lowest state (n1 = 0) carries the documented zero placeholder
        assert list(f_diag[:-1]) == [1.0] * two_j
        assert f_diag[-1] == 0.0
        assert list(g_diag) == [(n1 - n2) / 2.0 for n1, n2 in space.basis]
        rep = build_jsmap(BOSON, 0.0, SL2, j, FixedJ(two_j))
        assert np.max(np.abs(rep.s_plus.entries - textbook_jplus(two_j))) <= 1e-12
        assert np.max(np.abs(rep.s_minus.entries - textbook_jplus(two_j).T)) <= 1e-12
        assert np.max(np.abs(rep.s_z.entries - textbook_j0(two_j))) <= 1e-12
    _verdict(4, "standard two-boson limit")


def test_criterion_5_casimir_suites():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        rep = random_gha_rep(rng, max_dim=12)
        c = casimir_gha(rep).entries
        assert np.diag(c) == pytest.approx(
            [-rep.alpha0] * rep.dim, rel=1e-12, abs=1e-12
        )
        assert np.max(np.abs(c - np.diag(np.diag(c)))) <= 1e-14

    root = cut_condition_solve(FIG2, 2).included[0]
    finite_cases = [
        (build_gsl2(FIG2, root, 2, RepKind.FINITE_CUT, cut_tol=1e-9),
         build_jsmap(FIG4, -root, FIG2, root, FixedJ(1))),
    ]
    for two_j in (1, 2, 3, 4):
        j = two_j / 2.0
        finite_cases.append(
            (build_gsl2(SL2, j, two_j + 1, RepKind.FINITE_CUT),
             build_jsmap(BOSON, 0.0, SL2, j, FixedJ(two_j)))
        )
    for direct, mapped in finite_cases:
        expect = direct.alpha_j * (direct.alpha_j + 1.0)
        c_direct = casimir_gsl2(direct).entries
        assert np.diag(c_direct) == pytest.approx([expect] * direct.dim, rel=1e-10)
        assert np.diag(mapped.s_sq.entries) == pytest.approx(
            [expect] * direct.dim, rel=1e-10
        )
    _verdict(5, "casimir constancy")


def test_criterion_6_pairing_identity():
    report = verify_pairing_identity(FIG4, -0.15, 10, tol=1e-10)
    assert report.passed

    rng = np.random.default_rng(77)
    checked = 0
    while checked < 5:
        fn = CharFn(
            (
                1.0,
                rng.uniform(0.5, 1.5),
                rng.uniform(-0.2, 0.2),
                rng.uniform(-0.05, 0.05),
            ),
            Orientation.OSCILLATOR,
        )
        alpha0 = rng.uniform(-0.5, 0.5)
        gn, alpha_j = derive_pairing(fn, alpha0)
        # oracle: direct double iteration of both cubics
        xs, ys = [alpha0], [alpha_j]
        for _ in range(10):
            xs.append(evaluate(fn, xs[-1]))
            ys.append(evaluate(gn, ys[-1]))
        if any(abs(v) > 1e40 for v in xs) or abs(xs[1] - xs[0]) < 1e-6:
            continue
        for f_val, g_val in zip(xs, ys):
            assert g_val == pytest.approx(-f_val, rel=1e-12, abs=1e-12)
        report = verify_pairing_identity(fn, alpha0, 10, tol=1e-10)
        assert report.passed
        checked += 1
    _verdict(6, "reflection-pairing identity")


def test_criterion_7_orbit_regression():
    bundle1 = figure_bundle("fig1")
    rising = bundle1.report("a").iterates
    assert len(rising) == 201
    assert all(a < b for a, b in zip(rising, rising[1:]))
    # the orbit's limit is the tangent fixed point the report identifies,
    # which sits within 1e-9 (a fortiori 1e-6) of 0.7; the iterates approach
    # it from below without crossing
    (fp,) = bundle1.report("a").fixed_points
    assert abs(fp.location - 0.7) <= 1e-6
    assert all(x < fp.location for x in rising)
    # tangent contact makes the approach O(1/n): after 200 steps the gap is
    # still ~2e-3, and entering the 1e-6 neighbourhood takes ~4e5 steps;
    # run the orbit out to demonstrate the limit numerically
    assert 0.7 - rising[-1] == pytest.approx(1.93e-3, rel=0.05)
    x = rising[-1]
    for _ in range(600_000):
        x = evaluate(FIG1, x)
        if abs(x - 0.7) <= 1e-6:
            break
    assert abs(x - 0.7) <= 1e-6

    escaping = bundle1.report("b").iterates
    first_large = next(i for i, v in enumerate(escaping) if v > 1e6)
    assert first_large <= 60

    falling = figure_bundle("fig2").report("b").iterates
    first_low = next(i for i, v in enumerate(falling) if v < -1e6)
    assert first_low <= 40
    _verdict(7, "orbit regression")


def test_criterion_8_relation_suites():
    rng = np.random.default_rng(4096)
    for _ in range(20):
        rep = random_gha_rep(rng)
        report = verify_gha_relations(rep, tol=1e-10)
        assert report.passed, report.residuals
    for _ in range(20):
        rep = random_gsl2_rep(rng)
        report = verify_gsl2_relations(rep, tol=1e-10)
        assert report.passed, report.residuals
    _verdict(8, "relation residual suites")


def test_criterion_9_negative_controls(capsys):
    # every verifier must fail (CLI exit code 2) when any single ladder
    # value or matrix element moves by 1e-2
    for index in range(3):
        code, payload = _cli(
            capsys,
            "gha", "build", "--fn", BOSON_JSON, "--alpha0", "0", "--dim", "4",
            "--verify", "--perturb", f"ladder:{index}:0.01",
        )
        assert code == 2 and payload["verification"]["passed"] is False
    for index in range(4):
        code, payload = _cli(
            capsys,
            "gha", "build", "--fn", BOSON_JSON, "--alpha0", "0", "--dim", "4",
            "--verify", "--perturb", f"eigenvalues:{index}:0.01",
        )
        assert code == 2 and payload["verification"]["passed"] is False

    for index in range(3):
        code, payload = _cli(
            capsys,
            "gsl2", "build", "--gn", SL2_JSON, "--alphaj", "1.0", "--dim", "3",
            "--kind", "cut", "--verify", "--perturb", f"weights:{index}:0.01",
        )
        assert code == 2
    for index in range(2):
        code, payload = _cli(
            capsys,
            "gsl2", "build", "--gn", SL2_JSON, "--alphaj", "1.0", "--dim", "3",
            "--kind", "cut", "--verify", "--perturb", f"ladder_sq:{index}:0.01",
        )
        assert code == 2

    for target, row, col in (
        ("sz", 0, 0), ("sz", 1, 1), ("splus", 0, 1), ("splus", 1, 2),
        ("sminus", 1, 0), ("ssq", 0, 0),
    ):
        code, payload = _cli(
            capsys,
            "jsmap", "verify", "--fn", BOSON_JSON, "--alpha0", "0",
            "--gn", SL2_JSON, "--alphaj", "1", "--j", "1",
            "--perturb", f"{target}:{row},{col}:0.01",
        )
        assert code == 2 and payload["passed"] is False
    _verdict(9, "negative controls")

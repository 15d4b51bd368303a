import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjsmap import cli, gha, gsl2, jsmap, orbit
from gjsmap.cli import CliError, _HelpRequested, _job_argv, build_parser, main
from test_golden import CASES as GOLDEN_CASES
from test_golden import _reference as golden_reference

FN_FIG1 = '{"coefficients":[1.225,-2.5,2.5],"orientation":"oscillator"}'
FN_FIG4 = '{"coefficients":[1,3,1],"orientation":"oscillator"}'
GN_FIG2 = '{"coefficients":[-1,3,-1],"orientation":"weight"}'
BOSON = '{"coefficients":[1,1],"orientation":"oscillator"}'
SL2 = '{"coefficients":[-1,1],"orientation":"weight"}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestAnalyze:
    def test_fig1_report(self, capsys):
        code, payload, _ = run_cli(
            capsys, "charfun", "analyze", "--fn", FN_FIG1, "--x0", "0.56"
        )
        assert code == 0
        assert payload["discriminant"] == 0.0
        assert payload["boundary"] == 0.5
        assert payload["region"] == "convergent_interval"
        (fp,) = payload["fixed_points"]
        assert abs(fp["location"] - 0.7) <= 1e-9
        assert fp["stability"] == "neutral_tangent"

    def test_bad_fn_json_is_validation_error(self, capsys):
        code, payload, err = run_cli(capsys, "charfun", "analyze", "--fn", "{oops")
        assert code == 1
        assert payload is None
        assert "error" in json.loads(err)

    def test_constant_fn_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "charfun",
            "analyze",
            "--fn",
            '{"coefficients":[2.0],"orientation":"oscillator"}',
        )
        assert code == 1
        assert "degree" in json.loads(err)["error"]


class TestGhaBuild:
    def test_build_verify_out(self, capsys, tmp_path):
        out = tmp_path / "gha"
        code, payload, _ = run_cli(
            capsys,
            "gha",
            "build",
            "--fn",
            BOSON,
            "--alpha0",
            "0",
            "--dim",
            "4",
            "--verify",
            "--tol",
            "1e-10",
            "--out",
            str(out),
        )
        assert code == 0
        assert payload["rep"]["eigenvalues"] == [0.0, 1.0, 2.0, 3.0]
        assert payload["verification"]["passed"] is True
        for name in payload["files"]:
            assert (out / name).exists()

    def test_invalid_vacuum_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "gha", "build", "--fn", FN_FIG1, "--alpha0", "0.3", "--dim", "3"
        )
        assert code == 1
        assert "InvalidVacuum" in json.loads(err)["error"]

    def test_perturbed_ladder_exits_two(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "gha",
            "build",
            "--fn",
            BOSON,
            "--alpha0",
            "0",
            "--dim",
            "4",
            "--verify",
            "--perturb",
            "ladder:0:0.01",
        )
        assert code == 2
        assert payload["verification"]["passed"] is False


class TestGsl2:
    def test_cut_roots(self, capsys):
        code, payload, _ = run_cli(capsys, "gsl2", "cut", "--gn", GN_FIG2, "--d", "2")
        assert code == 0
        assert abs(payload["included"][0] - 0.33479) <= 1e-4
        assert abs(payload["excluded"][0] - 2.9228) <= 1e-3

    def test_build_cut_rep(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "gsl2",
            "build",
            "--gn",
            GN_FIG2,
            "--alphaj",
            "0.33479",
            "--dim",
            "2",
            "--kind",
            "cut",
            "--verify",
            "--tol",
            "1e-4",
        )
        assert code == 0
        assert payload["rep"]["kind"] == "cut"
        assert abs(payload["rep"]["cut_residual"]) <= 1e-4

    def test_perturbed_weights_exit_two(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "gsl2",
            "build",
            "--gn",
            SL2,
            "--alphaj",
            "1.0",
            "--dim",
            "3",
            "--kind",
            "cut",
            "--verify",
            "--perturb",
            "weights:1:0.01",
        )
        assert code == 2

    def test_periodic(self, capsys):
        code, payload, _ = run_cli(
            capsys, "gsl2", "periodic", "--gn", GN_FIG2, "--d", "1"
        )
        assert code == 0
        assert abs(payload["roots"][0] - 1.0) <= 1e-9


class TestJsmap:
    def test_verify_standard_limit(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "jsmap",
            "verify",
            "--fn",
            BOSON,
            "--alpha0",
            "0",
            "--gn",
            SL2,
            "--alphaj",
            "1",
            "--j",
            "1",
            "--tol",
            "1e-12",
        )
        assert code == 0
        assert payload["passed"] is True
        assert payload["map_vs_direct"]["max_residual"] <= 1e-12

    def test_verify_half_integer_j(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "jsmap",
            "verify",
            "--fn",
            BOSON,
            "--alpha0",
            "0",
            "--gn",
            SL2,
            "--alphaj",
            "0.5",
            "--j",
            "1/2",
            "--tol",
            "1e-12",
        )
        assert code == 0 and payload["passed"] is True

    def test_verify_perturbed_matrix_exits_two(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "jsmap",
            "verify",
            "--fn",
            BOSON,
            "--alpha0",
            "0",
            "--gn",
            SL2,
            "--alphaj",
            "1",
            "--j",
            "1",
            "--perturb",
            "splus:0,1:0.01",
        )
        assert code == 2
        assert payload["passed"] is False

    def test_build_full_grid(self, capsys, tmp_path):
        code, payload, _ = run_cli(
            capsys,
            "jsmap",
            "build",
            "--fn",
            BOSON,
            "--alpha0",
            "0",
            "--gn",
            SL2,
            "--alphaj",
            "2",
            "--full-grid",
            "3",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert payload["rep"]["mode"] == {"kind": "full_grid", "dim": 3}
        assert (tmp_path / "jsmap_Splus.csv").exists()

    def test_pairing(self, capsys):
        code, payload, _ = run_cli(
            capsys,
            "jsmap",
            "pairing",
            "--fn",
            FN_FIG4,
            "--alpha0",
            "-0.15",
            "--mmax",
            "10",
            "--tol",
            "1e-10",
        )
        assert code == 0
        assert payload["gn_derived"]["coefficients"] == [-1.0, 3.0, -1.0]
        assert payload["alpha_j"] == 0.15
        assert payload["report"]["passed"] is True

    def test_mode_required(self, capsys):
        code, _, err = run_cli(
            capsys,
            "jsmap",
            "build",
            "--fn",
            BOSON,
            "--alpha0",
            "0",
            "--gn",
            SL2,
            "--alphaj",
            "1",
        )
        assert code == 1


class TestOrbit:
    def test_figure_writes_files(self, capsys, tmp_path):
        code, payload, _ = run_cli(
            capsys, "orbit", "figure", "--name", "fig4", "--out", str(tmp_path)
        )
        assert code == 0
        assert payload["series"] == ["oscillator", "weight"]
        for name in payload["files"]:
            assert (tmp_path / name).exists()
        osc = json.loads((tmp_path / "fig4_oscillator.json").read_text())
        weight = json.loads((tmp_path / "fig4_weight.json").read_text())
        n = min(len(osc["iterates"]), len(weight["iterates"]))
        for f_val, g_val in zip(osc["iterates"][:n], weight["iterates"][:n]):
            assert abs(g_val + f_val) <= 1e-12

    def test_cobweb_default_window(self, capsys):
        code, payload, _ = run_cli(
            capsys, "orbit", "cobweb", "--fn", FN_FIG1, "--x0", "0.56", "--steps", "10"
        )
        assert code == 0
        report = payload["report"]
        assert report["region"] == "convergent_interval"
        assert len(report["iterates"]) == 11


class TestRunConfig:
    def test_batch_execution(self, capsys, tmp_path):
        config = {
            "jobs": [
                {
                    "name": "cut",
                    "command": "gsl2 cut",
                    "params": {"gn": json.loads(GN_FIG2), "d": 2},
                    "output": str(tmp_path / "cut.json"),
                },
                {
                    "name": "analyze",
                    "command": "charfun analyze",
                    "params": {"fn": json.loads(FN_FIG1), "x0": 0.85},
                    "output": str(tmp_path / "analyze.json"),
                },
            ]
        }
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps(config))
        code, payload, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert [j["status"] for j in payload["jobs"]] == ["ok", "ok"]
        cut = json.loads((tmp_path / "cut.json").read_text())
        assert abs(cut["included"][0] - 0.33479) <= 1e-4
        analyze = json.loads((tmp_path / "analyze.json").read_text())
        assert analyze["region"] == "divergent_interval"

    def test_duplicate_outputs_rejected_before_running(self, capsys, tmp_path):
        config = {
            "jobs": [
                {
                    "name": "a",
                    "command": "gsl2 cut",
                    "params": {"gn": json.loads(GN_FIG2), "d": 2},
                    "output": str(tmp_path / "same.json"),
                },
                {
                    "name": "b",
                    "command": "gsl2 periodic",
                    "params": {"gn": json.loads(GN_FIG2), "d": 1},
                    "output": str(tmp_path / "same.json"),
                },
            ]
        }
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps(config))
        code, payload, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "same output path" in json.loads(err)["error"]
        assert not (tmp_path / "same.json").exists()

    def test_output_inside_an_out_directory_rejected_before_running(self, capsys, tmp_path):
        gha_job = {"name": "a", "command": "gha build",
                   "params": {"fn": json.loads(BOSON), "alpha0": 0, "dim": 3,
                              "out": str(tmp_path / "d")}}
        analyze = {"name": "b", "command": "charfun analyze", "params": {"fn": json.loads(FN_FIG1)}}
        cases = {
            # another job's file in the directory: it would overwrite d/gha_H.csv
            "other job": [gha_job, {**analyze, "output": str(tmp_path / "d" / "gha_H.csv")}],
            "other job, deeper": [gha_job, {**analyze, "output": str(tmp_path / "d" / "x" / "y")}],
            "other job's --out": [gha_job, {"name": "c", "command": "orbit figure",
                                            "params": {"name": "fig1",
                                                       "out": str(tmp_path / "d" / "f")}}],
            "own output": [{**gha_job, "output": str(tmp_path / "d" / "gha.json")}],
        }
        for case, jobs in cases.items():
            cfg = tmp_path / "jobs.json"
            cfg.write_text(json.dumps({"jobs": jobs}))
            code, payload, err = run_cli(capsys, "run", "--config", str(cfg))
            assert (code, payload) == (1, None), case
            error = json.loads(err)["error"]
            assert "inside the --out directory of job 'a'" in error, case
            assert not (tmp_path / "d").exists(), case

    def test_sibling_of_an_out_directory_is_allowed(self, capsys, tmp_path):
        # "d.json" and "dx/..." start with the string "d" but are not inside d/
        config = {"jobs": [
            {"name": "a", "command": "gha build", "output": str(tmp_path / "d.json"),
             "params": {"fn": json.loads(BOSON), "alpha0": 0, "dim": 3,
                        "out": str(tmp_path / "d")}},
            {"name": "b", "command": "charfun analyze", "params": {"fn": json.loads(FN_FIG1)},
             "output": str(tmp_path / "dx" / "analyze.json")},
        ]}
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps(config))
        code, payload, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert [j["status"] for j in payload["jobs"]] == ["ok", "ok"]
        assert (tmp_path / "d" / "gha_H.csv").exists()
        assert (tmp_path / "dx" / "analyze.json").exists()

    def test_invalid_job_fails_fast(self, capsys, tmp_path):
        config = {
            "jobs": [
                {
                    "name": "good",
                    "command": "gsl2 cut",
                    "params": {"gn": json.loads(GN_FIG2), "d": 2},
                    "output": str(tmp_path / "good.json"),
                },
                {"name": "bad", "command": "gsl2 cut", "params": {"d": 2}},
            ]
        }
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "bad" in json.loads(err)["error"]
        assert not (tmp_path / "good.json").exists()

    @pytest.mark.parametrize("output", ["", ".", "..", "d/..", "d/"])
    def test_output_that_names_no_file_rejected_before_running(self, output, capsys,
                                                                monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        config = {"jobs": [
            {"name": "good", "command": "charfun analyze", "output": "good.json",
             "params": {"fn": json.loads(FN_FIG1)}},
            {"name": "bad", "command": "charfun analyze", "output": output,
             "params": {"fn": json.loads(FN_FIG1)}},
        ]}
        (tmp_path / "jobs.json").write_text(json.dumps(config))
        code, payload, err = run_cli(capsys, "run", "--config", "jobs.json")
        assert (code, payload) == (1, None)
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": f"job 'bad': 'output' {output!r} names no file"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.json"]

    def test_verification_failure_propagates(self, capsys, tmp_path):
        config = {
            "jobs": [
                {
                    "name": "negative-control",
                    "command": "gha build",
                    "params": {
                        "fn": json.loads(BOSON),
                        "alpha0": 0,
                        "dim": 4,
                        "verify": True,
                        "perturb": "ladder:1:0.01",
                    },
                }
            ]
        }
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps(config))
        code, payload, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert payload["jobs"][0]["status"] == "verification_failed"

    def test_perturb_without_verify_is_a_job_error(self, capsys, tmp_path):
        # --perturb changes only what --verify checks, so alone it would be ignored
        build = {"gn": json.loads(SL2), "alphaj": 1, "dim": 3, "kind": "cut"}
        jobs = [{"name": "unchecked", "command": "gsl2 build",
                 "params": {**build, "perturb": "weights:9:1"}},
                {"name": "plain", "command": "gsl2 build", "params": build}]
        (tmp_path / "jobs.json").write_text(json.dumps({"jobs": jobs}))
        code, payload, err = run_cli(capsys, "run", "--config", str(tmp_path / "jobs.json"))
        assert (code, err) == (1, "")
        unchecked, plain = payload["jobs"]
        assert (unchecked["status"], unchecked["error"]) == ("error",
                                                            "CliError: --perturb needs --verify")
        assert plain["status"] == "ok"


GHA3 = ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "3"]
CUT = ["gsl2", "cut", "--gn", GN_FIG2, "--d", "1"]
COBWEB = ["orbit", "cobweb", "--fn", FN_FIG1, "--steps", "5"]
SHELL = ["jsmap", "verify", "--fn", BOSON, "--alpha0", "0", "--gn", SL2, "--alphaj", "1",
         "--j", "1"]
WIDE_COBWEB = [*COBWEB, "--x0", "0.56", "--window=-1e200,1e200"]
SAMPLES_ERROR = "ValueError: the curve samples on the window [-1e+200, 1e+200] are not finite"
INF_COBWEB = ["orbit", "cobweb", "--fn", '{"coefficients":[0,0,1],"orientation":"oscillator"}',
              "--x0", "2", "--steps", "20"]
INF_ERROR = ("output cannot be encoded as JSON: "
             "Out of range float values are not JSON compliant: inf")
NAN_TOL_JOB = {"jobs": [{"name": "nan-tol", "command": "gha build",
                         "params": {"fn": json.loads(BOSON), "alpha0": 0, "dim": 3,
                                    "verify": True, "tol": "nan"}}]}
HELP_JOB = {"jobs": [{"name": "helper", "command": "gsl2 cut", "params": {"help": True}}]}
HELP_PREFIX_JOB = {"jobs": [{"name": "short", "command": "orbit cobweb", "params": {"h": True}}]}
UNWRITABLE_JOB = {"jobs": [{"command": "gha build", "output": 5,
                             "params": {"fn": json.loads(BOSON), "alpha0": 0, "dim": 3}}]}
HUGE_FN = '{"coefficients":[1,1%s],"orientation":"oscillator"}' % ("0" * 400)
HUGE_FN_JOB = {"jobs": [{"name": "huge", "command": "gha build",
                         "params": {"fn": json.loads(HUGE_FN), "alpha0": 0, "dim": 3}}]}
#: ``coefficients`` that are not a JSON list of numbers.
BAD_COEFFICIENTS = {
    case: '{"coefficients":%s,"orientation":"oscillator"}' % text
    for case, text in [("a string", '"12"'), ("strings", '["1","2"]'), ("a bool", "[true,2]"),
                       ("an object", '{"1":0,"2":0}')]
}
#: Non-finite ``--perturb`` amounts, which once reached numpy and failed as unencodable NaN.
NON_FINITE_PERTURB = {
    "perturb amount inf": [*SHELL, "--perturb", "sz:0,0:inf"],
    "perturb amount inf on a ladder": [*GHA3, "--verify", "--perturb", "ladder:0:inf"],
    "perturb amount nan": ["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3",
                           "--kind", "cut", "--verify", "--perturb", "weights:0:nan"],
}

STEP_JOB = {"jobs": [{"name": "stepped", "command": "gsl2 cut",
                      "params": {"gn": json.loads(GN_FIG2), "d": 1, "step": 1e-3}}]}
FLAT_GN = '{"coefficients":[0,1],"orientation":"weight"}'
TINY_LEAD_GN = '{"coefficients":[-1,3,-1e-308],"orientation":"weight"}'
HUGE_QUADRATIC = '{"coefficients":[1e200,1e200,1e200],"orientation":"oscillator"}'
STEEP_FN = '{"coefficients":[0,0.5,-1e308,-1e308],"orientation":"oscillator"}'
STEEP_GN = '{"coefficients":[3,-5e-324,3,1e308],"orientation":"weight"}'
TINY_GN = '{"coefficients":[-5e-324,-1.0,-5e-324],"orientation":"weight"}'
SLOW_FN = '{"coefficients":[0.5,1e-300],"orientation":"oscillator"}'
LOGISTIC_GN = '{"coefficients":[0,4,-4],"orientation":"weight"}'
HUGE_GN = '{"coefficients":[-1e308,2.5,-5e-324,0.0],"orientation":"weight"}'

#: ``(argv, GJS_DIVERGENCE_BOUND or None, run config or None, what the error
#: names)`` for inputs that must end in a JSON error on stderr and exit code 1.
BAD_INPUTS = {
    "tol nan": ([*GHA3, "--verify", "--tol", "nan"], None, None, "--tol"),
    "tol negative": ([*GHA3, "--verify", "--tol=-1e-10"], None, None, "--tol"),
    "tol inf": (["jsmap", "pairing", "--fn", FN_FIG4, "--alpha0", "-0.15", "--mmax", "3",
                 "--tol", "inf"], None, None, "--tol"),
    "shell tol nan": ([*SHELL, "--tol", "nan"], None, None, "--tol"),
    "cut-tol nan": (["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3", "--kind",
                     "cut", "--cut-tol", "nan"], None, None, "--cut-tol"),
    "cut-tol negative": ([*SHELL, "--cut-tol=-1e-9"], None, None, "--cut-tol"),
    "step refused": ([*CUT, "--step", "1e-3"], None, None, "unrecognized arguments: --step"),
    "batch job with step": (["run", "--config", "jobs.json"], None, STEP_JOB, "--step"),
    "window-size refused": ([*CUT, "--window-size", "5"], None, None,
                            "unrecognized arguments: --window-size"),
    "bound nan": (GHA3, "nan", None, "GJS_DIVERGENCE_BOUND"),
    "bound negative": (GHA3, "-1", None, "GJS_DIVERGENCE_BOUND"),
    "bound zero": (GHA3, "0", None, "GJS_DIVERGENCE_BOUND"),
    "nan residual": (["gha", "build", "--fn", FN_FIG4, "--alpha0", "0", "--dim", "11",
                      "--verify"], "1e300", None, "cannot be encoded"),
    "batch job with nan tol": (["run", "--config", "jobs.json"], None, NAN_TOL_JOB, "--tol"),
    "batch config not an object": (["run", "--config", "jobs.json"], None, [1, 2], "'jobs'"),
    "batch params not an object": (["run", "--config", "jobs.json"], None,
                                   {"jobs": [{"command": "gha build", "params": [1]}]}, "'params'"),
    "batch output not a string": (["run", "--config", "jobs.json"], None, UNWRITABLE_JOB, "'output'"),
    "batch job asks for help": (["run", "--config", "jobs.json"], None, HELP_JOB, "'helper'"),
    "batch job abbreviates help": (["run", "--config", "jobs.json"], None, HELP_PREFIX_JOB,
                                   "'short'"),
    "perturbed ladder square negative": (
        ["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3", "--kind", "cut", "--verify",
         "--perturb", "ladder_sq:0:-5"], None, None, "ladder squares"),
    "perturb off the diagonal": ([*SHELL, "--perturb", "s_sq:0,2:0.01"], None, None,
                                 "(0, 2) is off the diagonal of s_sq"),
    "perturb without verify": (["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3",
                                "--kind", "cut", "--perturb", "weights:9:1"], None, None,
                               "--perturb needs --verify"),
    **{case: (argv, None, None, "is not a finite number")
       for case, argv in NON_FINITE_PERTURB.items()},
    "coefficient too large for a float": (["gha", "build", "--fn", HUGE_FN, "--alpha0", "0",
                                           "--dim", "3"], None, None, "too large for a float"),
    "batch coefficient too large for a float": (["run", "--config", "jobs.json"], None,
                                                HUGE_FN_JOB, "too large for a float"),
    "cobweb window inf": ([*COBWEB, "--x0", "0.5", "--window", "0,inf"], None, None, "--window"),
    "cobweb x0 inf": ([*COBWEB, "--x0", "inf"], None, None, "--x0"),
    "analyze x0 nan": (["charfun", "analyze", "--fn", FN_FIG1, "--x0", "nan"], None, None, "--x0"),
    # the escape radius 7e308 of g = -1e-308 x^2 + 3x - 1 is past the float range
    "root bound overflows": (["gsl2", "cut", "--gn", TINY_LEAD_GN, "--d", "2"], None, None,
                             "the interval [-inf, inf] has no finite size"),
    # g(x) - x vanishes everywhere
    "flat closure function": (["gsl2", "periodic", "--gn", FLAT_GN, "--d", "1"], None, None,
                              "the roots are not isolated"),
    "build alphaj nan": (["jsmap", "build", *SHELL[2:9], "nan", "--j", "1"], None, None,
                         "InvalidHighestWeight: alpha_j = nan is not finite"),
    "build alphaj inf": (["jsmap", "build", *SHELL[2:9], "inf", "--j", "1"], None, None,
                         "InvalidHighestWeight: alpha_j = inf is not finite"),
    "verify alphaj nan": ([*SHELL[:9], "nan", "--j", "1"], None, None,
                          "InvalidHighestWeight: alpha_j = nan is not finite"),
    "verify alphaj inf": ([*SHELL[:9], "-inf", "--j", "1"], None, None,
                          "InvalidHighestWeight: alpha_j = -inf is not finite"),
    "discriminant overflows": (["charfun", "analyze", "--fn", HUGE_QUADRATIC], None, None,
                               "the discriminant of 1e+200 + 1e+200 x + 1e+200 x**2 is nan"),
    # fn overflows on most of the curve samples; the orbit itself stays finite
    "cobweb samples overflow": (WIDE_COBWEB, None, None, SAMPLES_ERROR),
    "cobweb samples overflow with --out": ([*WIDE_COBWEB, "--out", "o"], None, None,
                                           SAMPLES_ERROR),
    # the kept partial orbit ends in inf
    "cobweb report with inf": (INF_COBWEB, "1e300", None, INF_ERROR),
    "cobweb report with inf with --out": ([*INF_COBWEB, "--out", "o"], "1e300", None, INF_ERROR),
    # argparse before Python 3.13 gave "--d=--" the value []
    "option value --": ([*CUT[:4], "--d=--"], None, None, "argument --d: invalid int value: '--'"),
    # f' = 0.5 - 2e308 x - 3e308 x^2 overflows before its roots bound the region
    "derivative overflows": (["gha", "build", "--fn", STEEP_FN, "--alpha0", "2", "--dim", "8"],
                             None, None, "the derivative [0.5, -inf, -inf] of fn overflows"),
    "closure derivative overflows": (["gsl2", "cut", "--gn", STEEP_GN, "--d", "4"], None, None,
                                     "the derivative [-5e-324, 6.0, inf] of fn overflows"),
    # f(alpha0) - alpha0 = 1e308 + 1e308 overflows, so each Gauss number past [0] is inf / inf
    "gauss denominator overflows": (["jsmap", "pairing", "--fn", TINY_GN, "--alpha0", "-1e308",
                                     "--mmax", "1"], None, None, "cannot be encoded"),
    # the S^2 diagonal overflows before the direct representation's orbit does
    "casimir overflows": (["jsmap", "verify", "--fn", SLOW_FN, "--alpha0", "2", "--gn", HUGE_GN,
                           "--alphaj", "-0.15", "--j", "0"], None, None, "OverflowDiverged"),
    # 2^14 roots of g^(14)(x) - x, more than the isolator's boxes
    "more roots than boxes": (["gsl2", "periodic", "--gn", LOGISTIC_GN, "--d", "14"], None, None,
                              "more than 8192 boxes"),
    # the square of the perturbed entry overflows, so a residual is inf or nan
    "perturbed ladder square overflows": ([*GHA3, "--verify", "--perturb", "ladder:0:1e200"],
                                          None, None, "cannot be encoded"),
    "perturbed weight square overflows": (["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim",
                                           "3", "--kind", "cut", "--verify", "--perturb",
                                           "weights:0:1e200"], None, None, "cannot be encoded"),
    "perturbed s_z square overflows": ([*SHELL, "--perturb", "sz:0,0:1e200"], None, None,
                                       "cannot be encoded"),
    # each of these once read as [1.0, 2.0]
    **{f"coefficients {case}": (["charfun", "analyze", "--fn", fn], None, None,
                                "'coefficients' must be a list of numbers")
       for case, fn in BAD_COEFFICIENTS.items()},
    "batch coefficients a string": (["run", "--config", "jobs.json"], None, {"jobs": [
        {"command": "charfun analyze", "params": {"fn": json.loads(BAD_COEFFICIENTS["a string"])}}
    ]}, "'coefficients' must be a list of numbers"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", [
    # only the overflowing orbit of this case warns on its way to the error
    pytest.param(case, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))
    if case == "nan residual" else case
    for case in sorted(BAD_INPUTS)
])
def test_bad_input_is_a_json_error(case, capsys, monkeypatch, tmp_path):
    argv, bound, config, named = BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    if bound is None:
        monkeypatch.delenv("GJS_DIVERGENCE_BOUND", raising=False)
    else:
        monkeypatch.setenv("GJS_DIVERGENCE_BOUND", bound)
    if config is not None:
        (tmp_path / "jobs.json").write_text(json.dumps(config))
    code, payload, err = run_cli(capsys, *argv)
    assert code == 1
    assert payload is None
    assert named in json.loads(err)["error"]


def test_jsmap_verify_past_the_bound_is_the_direct_builds_error(capsys, monkeypatch):
    # g = x - 1 from alpha_j = 1 reaches -2.0 at step 3.  The map runs its g orbit unbounded, so
    # the error is the direct representation's, in the text its own iterate gave.
    monkeypatch.setenv("GJS_DIVERGENCE_BOUND", "1.5")
    code, payload, err = run_cli(capsys, "jsmap", "verify", "--fn", BOSON, "--alpha0", "-1",
                                 "--gn", SL2, "--alphaj", "1", "--j", "1")
    assert (code, payload) == (1, None)
    assert err == '{"error": "OverflowDiverged: iterate 3 = -2.0 exceeds the bound 1.5"}\n'


@pytest.mark.parametrize("case", sorted(NON_FINITE_PERTURB))
def test_non_finite_perturbation_rejected_without_warnings(case, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload, err = run_cli(capsys, *NON_FINITE_PERTURB[case])
    assert (code, payload) == (1, None)
    assert "is not a finite number" in json.loads(err)["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unencodable_batch_output_is_a_job_error(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GJS_DIVERGENCE_BOUND", "1e300")
    config = {"jobs": [{"name": "overflow", "command": "gha build", "output": "overflow.json",
                        "params": {"fn": json.loads(FN_FIG4), "alpha0": 0, "dim": 11,
                                   "verify": True}}]}
    (tmp_path / "jobs.json").write_text(json.dumps(config))
    code, payload, _ = run_cli(capsys, "run", "--config", "jobs.json")
    assert code == 1
    (job,) = payload["jobs"]
    assert job["status"] == "error"
    assert "cannot be encoded" in job["error"]
    assert not (tmp_path / "overflow.json").exists()


def test_unscannable_batch_job_is_a_job_error(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    small = {"name": "small", "command": "gsl2 cut", "params": {"gn": json.loads(GN_FIG2), "d": 1}}
    sized = {"name": "sized", "command": "gsl2 cut",
             "params": {"gn": json.loads(GN_FIG2), "d": 1, "window_size": 5}}
    (tmp_path / "jobs.json").write_text(json.dumps({"jobs": [small, sized]}))
    code, payload, err = run_cli(capsys, "run", "--config", "jobs.json")
    # --window-size is gone: the job is refused before any job runs
    assert (code, payload) == (1, None)
    assert "'sized'" in json.loads(err)["error"] and "--window-size" in json.loads(err)["error"]
    flat = {"name": "flat", "command": "gsl2 periodic",
            "params": {"gn": json.loads(FLAT_GN), "d": 1}}
    (tmp_path / "jobs.json").write_text(json.dumps({"jobs": [flat, small]}))
    code, payload, err = run_cli(capsys, "run", "--config", "jobs.json")
    assert code == 1
    assert err == ""
    flat, small = payload["jobs"]
    assert flat["status"] == "error"
    assert flat["error"].startswith("ValueError: ") and "the roots are not isolated" in flat["error"]
    assert small["status"] == "ok"


@pytest.mark.parametrize("kind, key, want", [("cut", "excluded", [2.2671683045421247]),
                                             ("periodic", "roots", [0.2451223337533072])])
def test_region_at_a_root_of_multiplicity_four(kind, key, want, capsys):
    # g = -(x - 1)^5: the region (-inf, 1) ends where g' = -5 (x - 1)^4 vanishes.
    quintic = '{"coefficients":[1,-5,10,-10,5,-1],"orientation":"weight"}'
    code, payload, _ = run_cli(capsys, "gsl2", kind, "--gn", quintic, "--d", "1")
    assert code == 0
    assert payload[key] == pytest.approx(want, abs=1e-12)


def test_huge_root_bound_is_solved(capsys):
    # x + g(x) + 1 = 2x - 1e-20 x^2: its Cauchy bound, about 2e20, holds both roots,
    # and the first level cuts that interval into the same number of boxes as any other.
    gn = '{"coefficients":[-1,1,-1e-20],"orientation":"weight"}'
    code, payload, _ = run_cli(capsys, "gsl2", "cut", "--gn", gn, "--d", "1")
    assert code == 0
    assert payload["included"] == pytest.approx([0.0], abs=1e-9)
    assert payload["excluded"] == pytest.approx([2e20], rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, bound, message, params, job_error", [
    # the batch job's window starts at 0.4, so its error names another window
    (WIDE_COBWEB, None, SAMPLES_ERROR,
     {"fn": json.loads(FN_FIG1), "x0": 0.56, "steps": 5, "window": "0.4,1e200"},
     "ValueError: the curve samples on the window [0.4, 1e+200] are not finite"),
    (INF_COBWEB, "1e300", INF_ERROR,
     {"fn": {"coefficients": [0, 0, 1], "orientation": "oscillator"}, "x0": 2, "steps": 20},
     "CliError: " + INF_ERROR),
])
def test_unwritable_report_is_one_error_with_or_without_out(argv, bound, message, params,
                                                            job_error, capsys, monkeypatch,
                                                            tmp_path):
    monkeypatch.chdir(tmp_path)
    if bound is None:
        monkeypatch.delenv("GJS_DIVERGENCE_BOUND", raising=False)
    else:
        monkeypatch.setenv("GJS_DIVERGENCE_BOUND", bound)
    for extra in ([], ["--out", "o"]):
        code, payload, err = run_cli(capsys, *argv, *extra)
        assert (code, payload) == (1, None)
        assert json.loads(err) == {"error": message}
    assert not list(tmp_path.glob("o/*"))
    jobs = [{"name": "output", "command": "orbit cobweb", "params": params, "output": "p.json"},
            {"name": "out", "command": "orbit cobweb", "params": {**params, "out": "b"}},
            {"name": "small", "command": "orbit cobweb",
             "params": {"fn": json.loads(FN_FIG1), "x0": 0.56, "steps": 2}}]
    (tmp_path / "jobs.json").write_text(json.dumps({"jobs": jobs}))
    code, payload, err = run_cli(capsys, "run", "--config", "jobs.json")
    assert (code, err) == (1, "")
    output, out, small = payload["jobs"]
    for job in (output, out):
        assert (job["status"], job["error"]) == ("error", job_error)
    assert small["status"] == "ok"
    assert not (tmp_path / "p.json").exists() and not list(tmp_path.glob("b/*"))


def test_job_string_param_may_start_with_a_dash(capsys, tmp_path):
    _, direct, _ = run_cli(capsys, *COBWEB, "--x0", "0.56", "--window=-1,1")
    params = {"fn": json.loads(FN_FIG1), "steps": 5, "x0": 0.56, "window": "-1,1"}
    assert _job_argv({"command": "orbit cobweb", "params": params})[-1] == "--window=-1,1"
    (tmp_path / "jobs.json").write_text(json.dumps(
        {"jobs": [{"name": "neg", "command": "orbit cobweb", "params": params}]}))
    code, payload, err = run_cli(capsys, "run", "--config", str(tmp_path / "jobs.json"))
    assert (code, err) == (0, "")
    (job,) = payload["jobs"]
    assert (job["status"], job["payload"]) == ("ok", direct)
    assert direct["report"]["window"] == [-1.0, 1.0]


#: ``(argv, option, value)`` with a value that argparse's own negative-number
#: pattern (``-1``, ``-1.5``) misses, and what the call must give instead.
NEGATIVE_VALUES = {
    "alpha0 in exponent form": (["gha", "build", "--fn", BOSON, "--dim", "3"], "--alpha0",
                                "-1e-05", lambda payload: payload["rep"]["alpha0"] == -1e-05),
    "x0 in exponent form": (["charfun", "analyze", "--fn", FN_FIG1], "--x0", "-2e-3",
                            lambda payload: payload["x0"] == -2e-3),
    "window from a negative end": ([*COBWEB, "--x0", "0.56"], "--window", "-1,1",
                                   lambda payload: payload["report"]["window"] == [-1.0, 1.0]),
}
NEGATIVE_ERRORS = {
    "negative rational j": (["jsmap", "build", "--fn", BOSON, "--alpha0", "0", "--gn", SL2,
                             "--alphaj", "2"], "--j", "-1/2",
                            "argument --j: j must be a non-negative half-integer"),
    "x0 -inf": (["charfun", "analyze", "--fn", FN_FIG1], "--x0", "-inf",
                "argument --x0: '-inf' is not a finite number"),
    "x0 -nan": (["charfun", "analyze", "--fn", FN_FIG1], "--x0", "-nan",
                "argument --x0: '-nan' is not a finite number"),
    "x0 -Infinity": (["charfun", "analyze", "--fn", FN_FIG1], "--x0", "-Infinity",
                     "argument --x0: '-Infinity' is not a finite number"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_VALUES))
def test_negative_value_after_a_space_is_a_value(capsys, case):
    argv, option, value, check = NEGATIVE_VALUES[case]
    code, payload, err = run_cli(capsys, *argv, option, value)
    assert (code, err) == (0, "") and check(payload)
    assert run_cli(capsys, *argv, f"{option}={value}") == (code, payload, err)


@pytest.mark.parametrize("case", sorted(NEGATIVE_ERRORS))
def test_negative_value_after_a_space_is_judged_by_its_type(capsys, case):
    argv, option, value, error = NEGATIVE_ERRORS[case]
    code, payload, err = run_cli(capsys, *argv, option, value)
    assert (code, payload, json.loads(err)) == (1, None, {"error": error})
    assert run_cli(capsys, *argv, f"{option}={value}") == (code, payload, err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unencodable_payload_fails_its_job_not_the_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GJS_DIVERGENCE_BOUND", "1e300")
    analyze = ["charfun", "analyze", "--fn", FN_FIG1, "--x0", "0.56"]
    _, direct, _ = run_cli(capsys, *analyze)
    jobs = [{"name": "inf", "command": "orbit cobweb",
             "params": {"fn": {"coefficients": [0, 0, 1], "orientation": "oscillator"},
                        "x0": 2, "steps": 20}},
            {"name": "good", "command": "charfun analyze",
             "params": {"fn": json.loads(FN_FIG1), "x0": 0.56}}]
    (tmp_path / "jobs.json").write_text(json.dumps({"jobs": jobs}))
    code, payload, err = run_cli(capsys, "run", "--config", "jobs.json")
    assert (code, err) == (1, "")
    inf, good = payload["jobs"]
    assert inf == {"name": "inf", "command": "orbit cobweb", "status": "error",
                   "error": "CliError: " + INF_ERROR}
    assert (good["status"], good["payload"]) == ("ok", direct)


class TestLabelsOnlyAtExport:
    """State labels are built for ``--out`` CSV files and nowhere else."""

    LABELS = [(gha, "gha_csv_labels"), (gsl2, "gsl2_csv_labels"), (jsmap, "jsmap_csv_labels")]
    RUNS = {
        "gha build": ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "5", "--verify"],
        "gsl2 build": ["gsl2", "build", "--gn", SL2, "--alphaj", "2", "--dim", "5", "--kind",
                       "cut", "--verify"],
        "jsmap build": ["jsmap", "build", "--fn", BOSON, "--alpha0", "0", "--gn", SL2,
                        "--alphaj", "2", "--j", "2"],
        "jsmap verify": [*SHELL],
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the label functions called, in order; each is wrapped where it lives."""
        called = []
        for module, name in self.LABELS:
            original = getattr(module, name)

            def wrapped(rep, name=name, original=original):
                called.append(name)
                return original(rep)

            monkeypatch.setattr(module, name, wrapped)
            monkeypatch.setattr(cli, name, wrapped)
        return called

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_no_labels_without_out(self, run, calls, capsys):
        code, payload, _ = run_cli(capsys, *self.RUNS[run])
        assert code == 0
        assert payload is not None
        assert calls == []

    @pytest.mark.parametrize("run, name", [
        ("gha build", "gha_csv_labels"),
        ("gsl2 build", "gsl2_csv_labels"),
        ("jsmap build", "jsmap_csv_labels"),
    ])
    def test_one_label_call_per_out_table(self, run, name, calls, capsys, tmp_path):
        code, payload, _ = run_cli(capsys, *self.RUNS[run], "--out", str(tmp_path))
        assert code == 0
        assert calls == [name]
        assert sum(f.endswith(".csv") for f in payload["files"]) >= 4


class TestCurveEvaluations:
    """An orbit report's curve is evaluated once by ``cobweb``'s finiteness check and once more
    only to write the curve CSV; each sample view evaluates it once."""

    @pytest.fixture
    def curves(self, monkeypatch):
        """The number of calls of ``gjsmap.orbit._curve`` so far, as a one-item list."""
        calls = [0]
        original = orbit._curve

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(orbit, "_curve", counted)
        return calls

    def test_cobweb_without_out_formats_no_curve_sample(self, curves, capsys):
        code, payload, _ = run_cli(capsys, *COBWEB, "--x0", "0.56")
        assert code == 0
        assert payload["report"]["samples"] == 512
        assert curves == [1]

    def test_cobweb_with_out(self, curves, capsys, tmp_path):
        code, payload, _ = run_cli(capsys, *COBWEB, "--x0", "0.56", "--out", str(tmp_path))
        assert code == 0
        assert len(payload["files"]) == 3
        assert curves == [2]

    @pytest.mark.parametrize("name, series", [("fig1", 2), ("fig2", 1), ("fig3", 1), ("fig4", 2)])
    def test_figure(self, name, series, curves, capsys, tmp_path):
        code, payload, _ = run_cli(capsys, "orbit", "figure", "--name", name, "--out",
                                   str(tmp_path))
        assert code == 0
        assert len(payload["files"]) == 3 * series
        assert curves == [2 * series]

    @pytest.mark.parametrize("view", ["fn_samples", "diagonal_samples"])
    def test_sample_view(self, view, curves):
        report = orbit.figure_bundle("fig1").report("a")
        curves[0] = 0
        assert len(getattr(report, view)) == report.samples
        assert curves == [1]


class TestParserReuse:
    #: Parses in order: a success, a failure, a batch job, help, the success again.
    SEQUENCE = [
        ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "3", "--verify"],
        ["gsl2", "cut", "--d", "2"],
        _job_argv({"command": "jsmap verify",
                   "params": {"fn": json.loads(BOSON), "alpha0": 0, "gn": json.loads(SL2),
                              "alphaj": 1, "j": "1/2", "perturb": "splus:0,1:0.01"}}),
        ["orbit", "cobweb", "--help"],
        ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "3", "--verify"],
    ]

    @staticmethod
    def _parse(parser, argv):
        try:
            return parser.parse_args(argv)
        except _HelpRequested as exc:
            return exc.text
        except CliError as exc:
            return str(exc)

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_parses_like_a_fresh_one(self):
        shared = build_parser()
        outcomes = [self._parse(shared, argv) for argv in self.SEQUENCE]
        fresh = [self._parse(build_parser.__wrapped__(), argv) for argv in self.SEQUENCE]
        assert outcomes == fresh
        assert outcomes[0] == outcomes[-1]
        assert [type(o).__name__ for o in outcomes] == [
            "Namespace", "str", "Namespace", "str", "Namespace"
        ]


def _argparse_outcome(argv):
    """What plain argparse makes of ``argv`` on the shared root parser, as comparable text."""
    try:
        namespace, extras = argparse.ArgumentParser.parse_known_args(build_parser(), list(argv))
    except CliError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(namespace), extras


#: Edge coefficients of a drawn characteristic function, and a non-numeric entry now and then.
_COEFFICIENTS = [0, 1, -1, 2.5, -2.5, 1e308, -1e308, 5e-324, -5e-324, 1e-300, 1e200, "x"]
#: 1-6 drawn coefficients, and an orientation that may be bogus or missing.
_DRAWN_FNS = st.builds(
    lambda coefficients, orientation: json.dumps(
        {"coefficients": coefficients, **({"orientation": orientation} if orientation else {})}
    ),
    st.lists(st.sampled_from(_COEFFICIENTS), min_size=1, max_size=6),
    st.sampled_from(["oscillator", "weight", "bogus", None]),
)
#: Float texts at the edges: signed zeros, the extremes, squares that overflow, NaN and infinities.
_EDGE_FLOATS = ["0", "-0.0", "1", "-1", "1e155", "-1e155", "1e200", "-1e200", "1e308", "-1e308",
                "5e-324", "nan", "inf", "-inf"]
#: ``--perturb`` texts by command group: a fixed one, or one of the group's targets at a few
#: indices by an edge amount.
_PERTURBATIONS = {
    group: st.sampled_from(["ladder:0:0.01", "splus:0,1:-0.5", "weights:1:-1e-05"]) | st.builds(
        "{}:{}:{}".format,
        st.sampled_from(sorted(targets)),
        st.sampled_from(["0", "1", "2", "0,0", "0,1", "1,0", "-1,-1"]),
        st.sampled_from(_EDGE_FLOATS),
    )
    for group, targets in cli._PERTURB_FIELDS.items()
}
#: Texts for each option type, valid or at an edge; a drawn function may be refused.
_TYPED_VALUES = {
    cli._charfn_arg: st.sampled_from([BOSON, SL2, FN_FIG1, FN_FIG4, GN_FIG2]) | _DRAWN_FNS,
    float: st.floats().map(repr),
    int: st.sampled_from(["-1", "0"]) | st.integers(-3, 40).map(str),
    cli._two_j_arg: st.sampled_from(["0", "1/2", "1", "3/2", "7", "-0", "0/0", "1/0", "1e2",
                                     "3/2/1"]),
    cli._tolerance_arg: st.sampled_from(["0", "-0.0", "5e-324", "1e308"])
    | st.floats(0.0, 1.0).map(repr),
    cli._real_arg: st.floats(allow_nan=False, allow_infinity=False).map(repr),
    cli._window_arg: st.sampled_from(["0.4,1.2", "-1,1", "-1e-3,2e-3"])
    | st.builds("{},{}".format, st.sampled_from(_EDGE_FLOATS), st.sampled_from(_EDGE_FLOATS)),
    None: st.sampled_from(["out/d", "jobs.json", "", "-1,1", "a=b"]),
}
#: Values that some option type refuses, and items that are no value at all.
_BAD_VALUES = ["{oops", "[]", "1/3", "-1/2", "0,inf", "ladder:0", "sz:0:nan", "-1e-10", "bogus"]
_ODD_ITEMS = ["-h", "--help", "--", "stray", "--unknown", "--unknown=1", "-x", "-inf", "="]


@st.composite
def _argvs(draw):
    """An argv for one of ``cli._COMMANDS``: well formed, or messed up in a few places.

    Options come in any order and in both value forms.  A messy argv may
    leave out a required option, repeat or abbreviate one, give a bad value
    or none, give a switch ``=x``, or hold an odd item anywhere, before the
    command included.
    """
    path = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[path][2]
    messy = draw(st.booleans())

    def mess() -> bool:
        return messy and draw(st.integers(0, 4)) == 0

    chosen = [opt for opt in options if opt[1].get("required") or draw(st.booleans())]
    chosen = [opt for opt in chosen if not mess()]
    if mess():
        chosen.append(draw(st.sampled_from(options)))
    argv = list(path)
    for flag, kwargs in draw(st.permutations(chosen)):
        if len(flag) > 3 and mess():
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        if kwargs.get("action") == "store_true":
            argv.append(flag + "=x" if mess() else flag)
            continue
        if "choices" in kwargs:
            value = draw(st.sampled_from(kwargs["choices"]))
        elif kwargs.get("type") is cli._perturb_arg:
            value = draw(_PERTURBATIONS[path[0]])
        else:
            value = draw(_TYPED_VALUES[kwargs.get("type")])
        if mess():
            value = draw(st.sampled_from(_BAD_VALUES + _ODD_ITEMS))
        forms = [[flag, value], [f"{flag}={value}"]]
        argv += [flag] if mess() else draw(st.sampled_from(forms))
    if mess():
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ODD_ITEMS)))
    return argv


class TestOnePassParse:
    """A well-formed argv is parsed in one pass; argparse parses the rest and writes every text."""

    @given(_argvs())
    @settings(max_examples=400, deadline=None)
    def test_declines_or_equals_argparse(self, argv):
        parsed = build_parser()._parse_well_formed(argv)
        if parsed is not None:  # reprs compare NaN values equal
            assert (repr(parsed), []) == _argparse_outcome(argv)

    @pytest.mark.parametrize("argv, declined", [
        ([*GHA3, "--out=--"], False),  # argparse before Python 3.13 gave the value []
        (["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3", "--kind", "bogus"], True),
        ([*GHA3, "--dim", "4"], False),  # a repeat keeps its last value, as in argparse
        ([*GHA3, "--verify", "--verify"], False),
    ])
    def test_edge_argvs(self, argv, declined):
        """A value outside the choices is declined; the rest equal argparse."""
        parsed = build_parser()._parse_well_formed(argv)
        assert (parsed is None) == declined
        if parsed is not None:
            assert (repr(parsed), []) == _argparse_outcome(argv)

    def test_equals_argparse_on_every_listed_argv(self):
        argvs = [argv for argv, _, _ in GOLDEN_CASES.values()]
        argvs += [argv for argv, *_ in BAD_INPUTS.values()] + list(NON_FINITE_PERTURB.values())
        for argv, option, value, _ in [*NEGATIVE_VALUES.values(), *NEGATIVE_ERRORS.values()]:
            argvs += [[*argv, option, value], [*argv, f"{option}={value}"]]
        for argv in argvs:
            parsed = build_parser()._parse_well_formed(argv)
            if parsed is not None:
                assert (repr(parsed), []) == _argparse_outcome(argv), argv

    @staticmethod
    def _golden_requests():
        """Golden requests that exit 0 with a result, and the jobs of batch runs not exiting 1."""
        reference = golden_reference()
        argvs = [argv for name, (argv, _, _) in GOLDEN_CASES.items()
                 if reference[name]["exit"] == 0 and len(argv) > 1 and "--help" not in argv]
        argvs += [_job_argv(job) for name, (_, _, config) in GOLDEN_CASES.items()
                  if config is not None and reference[name]["exit"] != 1 for job in config["jobs"]]
        return argvs

    def test_well_formed_requests_take_the_one_pass(self, monkeypatch):
        calls = []
        plain = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return plain(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        requests = self._golden_requests()
        assert len(requests) > 30
        for argv in requests:
            assert hasattr(build_parser().parse_args(argv), "handler")
        assert calls == []
        # the count sees a fall-through: an abbreviation goes to all three parsers
        build_parser().parse_args(["charfun", "analyze", "--fn", BOSON, "--x", "0.5"])
        assert calls == ["gjsmap", "gjsmap charfun", "gjsmap charfun analyze"]


def _small(argv: list[str]) -> list[str]:
    """``argv`` with each integer above 8 given to ``--full-grid`` or ``--d`` cut to 8.

    Their sizes cost more than linear time: ``--full-grid 40`` is 1,600 dense states.
    """
    argv = list(argv)
    for i, item in enumerate(argv):
        flag, eq, value = item.partition("=")
        if not eq and i + 1 < len(argv):
            value = argv[i + 1]
        if (len(flag) > 2 and any(name.startswith(flag) for name in ("--full-grid", "--d"))
                and value.isdigit() and int(value) > 8):
            if eq:
                argv[i] = f"{flag}=8"
            else:
                argv[i + 1] = "8"
    return argv


#: A verification of a representation that builds, per ``--perturb`` group; drawn argvs seldom
#: build one.
_VERIFIED = {
    "gha": [*GHA3, "--verify"],
    "gsl2": ["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3", "--kind", "cut",
             "--verify"],
    "jsmap": SHELL,
}
_PERTURBED_VERIFICATIONS = st.sampled_from(sorted(_VERIFIED)).flatmap(
    lambda group: _PERTURBATIONS[group].map(lambda text: [*_VERIFIED[group], "--perturb", text])
)


@given(_argvs().map(_small) | _PERTURBED_VERIFICATIONS)
@settings(max_examples=300, deadline=None)
def test_every_argv_ends_in_a_result_or_a_json_error(argv):
    """Exit 0 or 2 with one JSON document (or 0 with a help text), or 1 with one JSON error.

    A traceback would be an exception out of ``main``; warnings are errors.
    """
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        os.chdir(tmp)  # "--out" and "--config" values are relative paths
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(here)
    if code == 1:
        assert out.getvalue() == ""
        assert list(json.loads(err.getvalue())) == ["error"]
        return
    assert code in (0, 2)
    assert err.getvalue() == ""
    if code == 0 and out.getvalue().startswith("usage: gjsmap"):
        return
    json.loads(out.getvalue())


class TestDeterminismAndEnv:
    def test_byte_identical_output(self):
        argv = [
            sys.executable,
            "-m",
            "gjsmap.cli",
            "gsl2",
            "cut",
            "--gn",
            GN_FIG2,
            "--d",
            "2",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.decode().count("0.33478475026899224") == 1

    def test_divergence_bound_env_override(self):
        argv = [
            sys.executable,
            "-m",
            "gjsmap.cli",
            "orbit",
            "cobweb",
            "--fn",
            FN_FIG1,
            "--x0",
            "0.85",
            "--steps",
            "200",
        ]
        loose = subprocess.run(argv, capture_output=True, check=True)
        tight = subprocess.run(
            argv,
            capture_output=True,
            check=True,
            env={**os.environ, "GJS_DIVERGENCE_BOUND": "1e3"},
        )
        loose_iter = json.loads(loose.stdout)["report"]["iterates"]
        tight_iter = json.loads(tight.stdout)["report"]["iterates"]
        assert len(tight_iter) < len(loose_iter)
        assert max(abs(v) for v in tight_iter[:-1]) <= 1e3

    def test_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "gjsmap.cli", "--help"], capture_output=True
        )
        assert result.returncode == 0
        assert b"charfun" in result.stdout

    def test_closed_stdout_is_one_json_error(self):
        # The 632 kB of output outgrow a pipe buffer, so a write meets the closed pipe.
        argv = [sys.executable, "-m", "gjsmap.cli", "jsmap", "build", "--fn", BOSON,
                "--alpha0", "0", "--gn", SL2, "--alphaj", "50", "--j", "50"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.count(b"\n") == 1  # no traceback
        assert json.loads(err)["error"].startswith("BrokenPipeError: ")


#: Runs ``gjsmap.cli.main(json.loads(sys.argv[1]))`` with the address space limited to the
#: process's start-up size plus 100 MiB, so a request too large to allocate soon runs out.
MEMORY_LIMITED = """
import json, resource, sys
from gjsmap.cli import main
with open("/proc/self/statm") as statm:
    limit = int(statm.read().split()[0]) * resource.getpagesize() + 100 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(json.loads(sys.argv[1])))
"""

TOO_LARGE = {
    "gha build": ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "10000000000"],
    "orbit cobweb": ["orbit", "cobweb", "--fn", BOSON, "--x0", "0", "--steps", "10000000000"],
    "jsmap build": ["jsmap", "build", "--fn", BOSON, "--alpha0", "0", "--gn", SL2,
                    "--alphaj", "0", "--j", "10000000000"],
}


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_a_request_too_large_to_allocate_is_one_json_error(tmp_path):
    # The partial orbit lives on in the error's frames until they are cleared, and formatting
    # the error line in what memory it leaves ended in a second MemoryError and a traceback.
    config = tmp_path / "jobs.json"
    job = {"command": "gha build", "params": {"fn": json.loads(BOSON), "alpha0": 0, "dim": 10**10}}
    config.write_text(json.dumps({"jobs": [job]}))
    argvs = {**TOO_LARGE, "run": ["run", "--config", str(config)]}
    env = {**os.environ, "LC_ALL": "C"}
    procs = {name: subprocess.Popen([sys.executable, "-c", MEMORY_LIMITED, json.dumps(argv)],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
             for name, argv in argvs.items()}  # side by side, about 0.6 s each
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 1, (name, err.decode())
        if name == "run":
            assert err == b""
            (entry,) = json.loads(out)["jobs"]
            assert entry["status"] == "error" and entry["error"].startswith("MemoryError"), entry
        else:
            assert out == b"" and err.count(b"\n") == 1, (name, err.decode())  # no traceback
            assert json.loads(err)["error"].startswith("MemoryError: "), name


#: Fresh-process paths that must finish without importing numpy.
NUMPY_FREE = {
    "import": "import gjsmap",
    "parser": "import gjsmap.cli\ngjsmap.cli.build_parser()",
    "help": "from gjsmap import cli\nassert cli.main(['--help']) == 0",
    "bad-input": "from gjsmap import cli\nassert cli.main(['gha', 'build', '--dim', 'x']) == 1",
    "linear-analyze": (
        "from gjsmap import cli\n"
        f"assert cli.main(['charfun', 'analyze', '--fn', {BOSON!r}, '--x0', '0.3']) == 0"
    ),
}


class TestColdStart:
    @pytest.mark.parametrize("source", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
    def test_path_loads_no_numpy(self, source):
        script = f"{source}\nimport sys\nassert 'numpy' not in sys.modules, 'numpy was imported'"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert result.returncode == 0, result.stderr.decode()

    def test_numeric_command_imports_numpy_on_first_use(self):
        argv = [sys.executable, "-m", "gjsmap.cli", "gha", "build", "--fn", BOSON,
                "--alpha0", "0", "--dim", "6", "--verify"]
        result = subprocess.run(argv, capture_output=True)
        assert result.returncode == 0, result.stderr.decode()
        assert json.loads(result.stdout)["verification"]["passed"] is True

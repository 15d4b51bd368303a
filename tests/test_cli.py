import json
import os
import subprocess
import sys
import warnings

import pytest

from gjsmap import cli, gha, gsl2, jsmap
from gjsmap.cli import CliError, _HelpRequested, _job_argv, build_parser, main

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


GHA3 = ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "3"]
CUT = ["gsl2", "cut", "--gn", GN_FIG2, "--d", "1"]
PERIODIC = ["gsl2", "periodic", "--gn", GN_FIG2, "--d", "1"]
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
HUGE_QUADRATIC = '{"coefficients":[1e200,1e200,1e200],"orientation":"oscillator"}'

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
    "window-size zero": ([*PERIODIC, "--window-size", "0"], None, None, "--window-size"),
    "window-size nan": ([*CUT, "--window-size", "nan"], None, None, "--window-size"),
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
    **{case: (argv, None, None, "is not a finite number")
       for case, argv in NON_FINITE_PERTURB.items()},
    "coefficient too large for a float": (["gha", "build", "--fn", HUGE_FN, "--alpha0", "0",
                                           "--dim", "3"], None, None, "too large for a float"),
    "batch coefficient too large for a float": (["run", "--config", "jobs.json"], None,
                                                HUGE_FN_JOB, "too large for a float"),
    "cobweb window inf": ([*COBWEB, "--x0", "0.5", "--window", "0,inf"], None, None, "--window"),
    "cobweb x0 inf": ([*COBWEB, "--x0", "inf"], None, None, "--x0"),
    "analyze x0 nan": (["charfun", "analyze", "--fn", FN_FIG1, "--x0", "nan"], None, None, "--x0"),
    # the window's width 2 * 1e308 overflows to inf
    "window-size overflows the grid": ([*CUT, "--window-size", "1e308"], None, None,
                                       "no finite size"),
    # g(x) - x vanishes on the whole window
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
    config = {"jobs": [
        {"name": "wide", "command": "gsl2 cut",
         "params": {"gn": json.loads(GN_FIG2), "d": 1, "window_size": 1e308}},
        {"name": "flat", "command": "gsl2 periodic",
         "params": {"gn": json.loads(FLAT_GN), "d": 1}},
        {"name": "small", "command": "gsl2 cut", "params": {"gn": json.loads(GN_FIG2), "d": 1}},
    ]}
    (tmp_path / "jobs.json").write_text(json.dumps(config))
    code, payload, err = run_cli(capsys, "run", "--config", "jobs.json")
    assert code == 1
    assert err == ""
    wide, flat, small = payload["jobs"]
    for job, named in ((wide, "no finite size"), (flat, "the roots are not isolated")):
        assert job["status"] == "error"
        assert job["error"].startswith("ValueError: ") and named in job["error"]
    assert small["status"] == "ok"


@pytest.mark.parametrize("kind, key, want", [("cut", "excluded", [2.2671683045421247]),
                                             ("periodic", "roots", [0.2451223337533072])])
def test_region_at_a_root_of_multiplicity_four(kind, key, want, capsys):
    # g = -(x - 1)^5: the region (-inf, 1) ends where g' = -5 (x - 1)^4 vanishes.
    quintic = '{"coefficients":[1,-5,10,-10,5,-1],"orientation":"weight"}'
    code, payload, _ = run_cli(capsys, "gsl2", kind, "--gn", quintic, "--d", "1")
    assert code == 0
    assert payload[key] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("window", ["1e20", "1.85e18", "1.8889465931478582e+18"])
def test_huge_window_size_is_solved(window, capsys):
    # The first level cuts any finite window into the same number of boxes.
    code, payload, _ = run_cli(capsys, *CUT, "--window-size", window)
    assert code == 0
    assert payload["included"] + payload["excluded"] == pytest.approx([0.0, 4.0], abs=1e-12)


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

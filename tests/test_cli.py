import json
import os
import subprocess
import sys

import pytest

from gjsmap.cli import main

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
SHELL = ["jsmap", "verify", "--fn", BOSON, "--alpha0", "0", "--gn", SL2, "--alphaj", "1",
         "--j", "1"]
NAN_TOL_JOB = {"jobs": [{"name": "nan-tol", "command": "gha build",
                         "params": {"fn": json.loads(BOSON), "alpha0": 0, "dim": 3,
                                    "verify": True, "tol": "nan"}}]}

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
    "step zero": ([*CUT, "--step", "0"], None, None, "--step"),
    "step negative": ([*CUT, "--step", "-1"], None, None, "--step"),
    "step inf": ([*PERIODIC, "--step", "inf"], None, None, "--step"),
    "window-size zero": ([*PERIODIC, "--window-size", "0"], None, None, "--window-size"),
    "window-size nan": ([*CUT, "--window-size", "nan"], None, None, "--window-size"),
    "bound nan": (GHA3, "nan", None, "GJS_DIVERGENCE_BOUND"),
    "bound negative": (GHA3, "-1", None, "GJS_DIVERGENCE_BOUND"),
    "bound zero": (GHA3, "0", None, "GJS_DIVERGENCE_BOUND"),
    "nan residual": (["gha", "build", "--fn", FN_FIG4, "--alpha0", "0", "--dim", "11",
                      "--verify"], "1e300", None, "cannot be encoded"),
    "batch job with nan tol": (["run", "--config", "jobs.json"], None, NAN_TOL_JOB, "--tol"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
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

"""Golden digests of everything the CLI lets a user observe.

Each case runs ``gjsmap.cli.main`` in-process inside an empty working
directory and records the exit code and the SHA-256 of stdout, of stderr and
of every file left in that directory (``--out`` paths are relative, because
payloads echo them).  ``golden_digests.json`` holds the reference digests.
They pin the output down to the byte, so a refactoring of the CLI or of the
numerics behind it has to reproduce it exactly.

Regenerate the digest file only from a commit whose output is the intended
reference, never to make a refactoring pass::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gjsmap.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

FIG1 = '{"coefficients":[1.225,-2.5,2.5],"orientation":"oscillator"}'
FIG4 = '{"coefficients":[1,3,1],"orientation":"oscillator"}'
GN2 = '{"coefficients":[-1,3,-1],"orientation":"weight"}'
BOSON = '{"coefficients":[1,1],"orientation":"oscillator"}'
SL2 = '{"coefficients":[-1,1],"orientation":"weight"}'
FLIP = '{"coefficients":[0,-1],"orientation":"weight"}'
NOFIX = '{"coefficients":[2,3,1],"orientation":"oscillator"}'
QOSC = '{"coefficients":[1,1.002],"orientation":"oscillator"}'
QWEIGHT = '{"coefficients":[-1,1.002],"orientation":"weight"}'
ROOT = "0.33478475026899224"

GN2_DICT = json.loads(GN2)
BOSON_DICT = json.loads(BOSON)
SL2_DICT = json.loads(SL2)

README_VERIFY = [
    "jsmap", "verify", "--fn", FIG4, "--alpha0", "-" + ROOT, "--gn", GN2,
    "--alphaj", ROOT, "--j", "1/2", "--tol", "1e-10", "--kind", "cut", "--cut-tol", "1e-9",
]
SHELL = ["--fn", BOSON, "--alpha0", "0", "--gn", SL2, "--alphaj", "1", "--j", "1"]
GHA4 = ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "4", "--verify"]
GSL2_3 = ["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3", "--kind", "cut", "--verify"]

#: Every README command, each ``--perturb`` target and alias, every ``--out``
#: writer, batch runs, error paths and every ``--help`` text.  A case is
#: ``(argv, environment overrides, run config or None)``.
CASES: dict[str, tuple[list[str], dict, dict | None]] = {
    # README commands
    "readme analyze": (["charfun", "analyze", "--fn", FIG1, "--x0", "0.56"], {}, None),
    "readme gha build": (
        ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "6", "--verify",
         "--tol", "1e-10", "--out", "out/gha"], {}, None),
    "readme gsl2 build": (
        ["gsl2", "build", "--gn", GN2, "--alphaj", "0.33479", "--dim", "2", "--kind", "cut",
         "--verify", "--tol", "1e-4"], {}, None),
    "readme gsl2 cut": (["gsl2", "cut", "--gn", GN2, "--d", "2"], {}, None),
    "readme gsl2 periodic": (["gsl2", "periodic", "--gn", GN2, "--d", "1"], {}, None),
    "readme jsmap build": (["jsmap", "build", *SHELL], {}, None),
    "readme jsmap verify": (README_VERIFY, {}, None),
    "readme jsmap pairing": (
        ["jsmap", "pairing", "--fn", FIG4, "--alpha0", "-0.15", "--mmax", "10",
         "--tol", "1e-10"], {}, None),
    "readme orbit figure": (["orbit", "figure", "--name", "fig3", "--out", "out/fig3"], {}, None),
    "readme orbit cobweb": (
        ["orbit", "cobweb", "--fn", FIG1, "--x0", "0.56", "--steps", "50"], {}, None),
    "readme run": (
        ["run", "--config", "jobs.json"], {},
        {"jobs": [{"name": "cut", "command": "gsl2 cut", "params": {"gn": GN2_DICT, "d": 2},
                   "output": "out/cut.json"}]}),
    # charfun analysis branches
    "analyze no x0": (["charfun", "analyze", "--fn", FIG4], {}, None),
    "analyze two fixed points": (
        ["charfun", "analyze", "--fn", '{"coefficients":[0,2,1],"orientation":"oscillator"}',
         "--x0", "0.5"], {}, None),
    "analyze no fixed point": (["charfun", "analyze", "--fn", NOFIX, "--x0", "0"], {}, None),
    "analyze cubic": (
        ["charfun", "analyze", "--fn", '{"coefficients":[0,0.5,0,1],"orientation":"oscillator"}',
         "--x0", "0.1"], {}, None),
    "analyze weight tangent": (["charfun", "analyze", "--fn", GN2, "--x0", "1.2"], {}, None),
    "analyze bad json": (["charfun", "analyze", "--fn", "{oops"], {}, None),
    # builds and their --out writers
    "gsl2 build out": (
        ["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3", "--kind", "cut",
         "--out", "out/gsl2"], {}, None),
    "gsl2 build periodic out": (
        ["gsl2", "build", "--gn", FLIP, "--alphaj", "0.5", "--dim", "2", "--kind", "periodic",
         "--verify", "--out", "out/periodic"], {}, None),
    "gsl2 build truncated": (
        ["gsl2", "build", "--gn", SL2, "--alphaj", "3", "--dim", "4", "--kind", "truncated",
         "--verify"], {}, None),
    "gsl2 build outside region": (
        ["gsl2", "build", "--gn", GN2, "--alphaj", "2", "--dim", "2", "--kind", "cut"], {}, None),
    "jsmap build out": (["jsmap", "build", *SHELL, "--out", "out/jsmap"], {}, None),
    "jsmap build full grid out": (
        ["jsmap", "build", "--fn", BOSON, "--alpha0", "0", "--gn", SL2, "--alphaj", "1",
         "--full-grid", "3", "--out", "out/grid"], {}, None),
    "jsmap build both modes": (["jsmap", "build", *SHELL, "--full-grid", "3"], {}, None),
    "jsmap build no mode": (
        ["jsmap", "build", "--fn", BOSON, "--alpha0", "0", "--gn", SL2, "--alphaj", "1"],
        {}, None),
    "jsmap verify no j": (
        ["jsmap", "verify", "--fn", BOSON, "--alpha0", "0", "--gn", SL2, "--alphaj", "1"],
        {}, None),
    "jsmap verify open shell": (
        ["jsmap", "verify", "--fn", BOSON, "--alpha0", "0", "--gn", SL2, "--alphaj", "1.5",
         "--j", "1", "--kind", "truncated"], {}, None),
    "jsmap verify q shell 400": (
        ["jsmap", "verify", "--fn", QOSC, "--alpha0", "0.25", "--gn", QWEIGHT,
         "--alphaj", "189.92114581279242", "--j", "200", "--kind", "cut", "--tol", "1e-9"],
        {}, None),
    "gha build q 401": (
        ["gha", "build", "--fn", QOSC, "--alpha0", "0.25", "--dim", "401", "--verify",
         "--tol", "1e-9"], {}, None),
    "gsl2 build q 41": (
        ["gsl2", "build", "--gn", QWEIGHT, "--alphaj", "19.988550601890246", "--dim", "41",
         "--kind", "cut", "--verify"], {}, None),
    "jsmap pairing no fixed point": (
        ["jsmap", "pairing", "--fn", NOFIX, "--alpha0", "0", "--mmax", "5"], {}, None),
    # negative controls: every --perturb target and alias
    "gha perturb ladder": ([*GHA4, "--perturb", "ladder:0:0.01"], {}, None),
    "gha perturb eigenvalues": ([*GHA4, "--perturb", "eigenvalues:1:0.5"], {}, None),
    "gha perturb upper case": ([*GHA4, "--perturb", "LADDER:2:0.01"], {}, None),
    "gha perturb unknown": ([*GHA4, "--perturb", "weights:0:0.01"], {}, None),
    "gha perturb out of range": ([*GHA4, "--perturb", "ladder:9:0.01"], {}, None),
    "gha perturb two indices": ([*GHA4, "--perturb", "ladder:0,1:0.01"], {}, None),
    "gha perturb without verify": (
        ["gha", "build", "--fn", BOSON, "--alpha0", "0", "--dim", "3", "--perturb",
         "ladder:0:1"], {}, None),
    "gha perturb bad format": ([*GHA4, "--perturb", "ladder:0"], {}, None),
    "gsl2 perturb weights": ([*GSL2_3, "--perturb", "weights:0:0.01"], {}, None),
    "gsl2 perturb ladder_sq": ([*GSL2_3, "--perturb", "ladder_sq:1:0.01"], {}, None),
    "gsl2 perturb ladder-sq": ([*GSL2_3, "--perturb", "ladder-sq:0:0.01"], {}, None),
    "gsl2 perturb unknown": ([*GSL2_3, "--perturb", "ladder:0:0.01"], {}, None),
    "gsl2 perturb out of range": ([*GSL2_3, "--perturb", "weights:3:0.01"], {}, None),
    "gsl2 perturb negative index": ([*GSL2_3, "--perturb", "weights:-1:0.01"], {}, None),
    **{
        f"jsmap perturb {target}": (
            ["jsmap", "verify", *SHELL, "--perturb", f"{target}:{index}:0.01"], {}, None)
        for target, index in (
            ("sz", "1,1"), ("s_z", "0,0"), ("splus", "0,1"), ("s_plus", "1,2"),
            ("sminus", "1,0"), ("s_minus", "2,1"), ("ssq", "2,2"), ("s_sq", "0,2"),
            ("SPlus", "0,1"),
        )
    },
    "jsmap perturb unknown": (["jsmap", "verify", *SHELL, "--perturb", "jplus:0,1:1"], {}, None),
    "jsmap perturb out of range": (
        ["jsmap", "verify", *SHELL, "--perturb", "splus:3,0:1"], {}, None),
    "jsmap perturb one index": (["jsmap", "verify", *SHELL, "--perturb", "splus:0:1"], {}, None),
    "jsmap perturb wrapped index": (
        ["jsmap", "verify", *SHELL, "--perturb", "splus:-3,-2:0.01"], {}, None),
    # orbit traces
    "orbit figure fig1": (["orbit", "figure", "--name", "fig1", "--out", "fig"], {}, None),
    "orbit figure fig2": (["orbit", "figure", "--name", "fig2", "--out", "fig"], {}, None),
    "orbit figure fig4": (["orbit", "figure", "--name", "fig4", "--out", "fig"], {}, None),
    "orbit cobweb window out": (
        ["orbit", "cobweb", "--fn", FIG1, "--x0", "0.85", "--steps", "30", "--window",
         "0.4,1.2", "--out", "out/cobweb"], {}, None),
    "orbit cobweb degenerate span": (
        ["orbit", "cobweb", "--fn", BOSON, "--x0", "0", "--steps", "5"], {}, None),
    "orbit cobweb weight": (["orbit", "cobweb", "--fn", GN2, "--x0", "1.2", "--steps", "20"],
                            {}, None),
    "orbit cobweb bad window": (
        ["orbit", "cobweb", "--fn", FIG1, "--x0", "0.5", "--steps", "5", "--window", "1"],
        {}, None),
    # divergence bound from the environment
    "bound tight": (
        ["orbit", "cobweb", "--fn", FIG1, "--x0", "0.85", "--steps", "200"],
        {"GJS_DIVERGENCE_BOUND": "1e3"}, None),
    "bound overflow": (
        ["gha", "build", "--fn", FIG4, "--alpha0", "0", "--dim", "11"],
        {"GJS_DIVERGENCE_BOUND": "1e3"}, None),
    "bound huge": (
        ["gha", "build", "--fn", FIG4, "--alpha0", "0", "--dim", "11", "--out", "out/huge"],
        {"GJS_DIVERGENCE_BOUND": "1e300"}, None),
    "bound not a number": (
        ["gsl2", "build", "--gn", SL2, "--alphaj", "1", "--dim", "3", "--kind", "cut"],
        {"GJS_DIVERGENCE_BOUND": "abc"}, None),
    # batch mode
    "run mixed": (
        ["run", "--config", "jobs.json"], {},
        {"jobs": [
            {"name": "ladder", "command": "gha build",
             "params": {"fn": BOSON_DICT, "alpha0": 0, "dim": 3, "verify": True, "out": "b/gha"},
             "output": "b/gha.json"},
            {"name": "control", "command": "jsmap verify",
             "params": {"fn": BOSON_DICT, "alpha0": 0, "gn": SL2_DICT, "alphaj": 1, "j": 1,
                        "perturb": "splus:0,1:0.01", "tol": 1e-12}},
            {"command": "gsl2 build",
             "params": {"gn": GN2_DICT, "alphaj": 2, "dim": 2, "kind": "cut", "verify": False}},
            {"name": "figure", "command": "orbit figure", "params": {"name": "fig2", "out": "b/f"}},
            {"name": "grid", "command": "jsmap build",
             "params": {"fn": BOSON_DICT, "alpha0": 0, "gn": SL2_DICT, "alphaj": 1,
                        "full_grid": 2, "out": "b/grid"}, "output": "b/grid.json"},
        ]}),
    "run verification failure": (
        ["run", "--config", "jobs.json"], {},
        {"jobs": [{"name": "nc", "command": "gha build",
                   "params": {"fn": BOSON_DICT, "alpha0": 0, "dim": 4, "verify": True,
                              "perturb": "ladder:1:0.01"}}]}),
    "run invalid job": (
        ["run", "--config", "jobs.json"], {},
        {"jobs": [{"name": "good", "command": "charfun analyze", "params": {"fn": BOSON_DICT},
                   "output": "good.json"},
                  {"name": "bad", "command": "gsl2 cut", "params": {"d": 2}}]}),
    "run duplicate outputs": (
        ["run", "--config", "jobs.json"], {},
        {"jobs": [{"name": "a", "command": "charfun analyze", "params": {"fn": BOSON_DICT},
                   "output": "same.json"},
                  {"name": "b", "command": "orbit figure",
                   "params": {"name": "fig1", "out": "same.json"}}]}),
    "run nested run": (["run", "--config", "jobs.json"], {},
                       {"jobs": [{"command": "run", "params": {"config": "jobs.json"}}]}),
    "run group only": (["run", "--config", "jobs.json"], {}, {"jobs": [{"command": "gha"}]}),
    "run no jobs list": (["run", "--config", "jobs.json"], {}, {"jobs": {}}),
    "run job not an object": (["run", "--config", "jobs.json"], {}, {"jobs": ["gsl2 cut"]}),
    "run missing config": (["run", "--config", "missing.json"], {}, None),
    # parser errors and help texts
    "no arguments": ([], {}, None),
    "group without command": (["gha"], {}, None),
    "unknown command": (["frobnicate"], {}, None),
    "missing required": (["gsl2", "cut", "--d", "2"], {}, None),
    "bad two j": (["jsmap", "build", *SHELL[:-1], "1/3"], {}, None),
    **{
        " ".join(("help", "gjsmap", *words)): ([*words, "--help"], {}, None)
        for words in (
            (), ("charfun",), ("charfun", "analyze"), ("gha",), ("gha", "build"), ("gsl2",),
            ("gsl2", "build"), ("gsl2", "cut"), ("gsl2", "periodic"), ("jsmap",),
            ("jsmap", "build"), ("jsmap", "verify"), ("jsmap", "pairing"), ("orbit",),
            ("orbit", "figure"), ("orbit", "cobweb"), ("run",),
        )
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _environment(overrides: dict):
    """Fixed terminal width, no inherited bound, plus ``overrides``."""
    keys = ("GJS_DIVERGENCE_BOUND", "COLUMNS", "LINES", *overrides)
    saved = {key: os.environ.get(key) for key in keys}
    os.environ.pop("GJS_DIVERGENCE_BOUND", None)
    os.environ.update({"COLUMNS": "80", "LINES": "24", **overrides})
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_case(name: str, workdir: Path) -> dict:
    """Run one case inside the empty ``workdir``; returns its digest record."""
    argv, env, config = CASES[name]
    if config is not None:
        (workdir / "jobs.json").write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with _environment(env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    files = {
        path.relative_to(workdir).as_posix(): _sha(path.read_bytes())
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode("utf-8")),
        "stderr": _sha(err.getvalue().encode("utf-8")),
        "files": files,
    }


def _reference() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_case_has_a_digest():
    assert sorted(_reference()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_digest(name, tmp_path):
    assert run_case(name, tmp_path) == _reference()[name]


if __name__ == "__main__":
    records = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            records[case] = run_case(case, Path(tmp))
    DIGESTS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} digests to {DIGESTS}", file=sys.stderr)

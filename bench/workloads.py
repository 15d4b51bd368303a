"""Seeded jobs for the four benchmark workloads, each with its output check.

A workload is a list of jobs (one *pass*) that the worker runs again and
again with fresh inputs: pass ``k`` of workload ``w`` draws its inputs from
``numpy.random.default_rng([seed, crc32(w), k])``.  The sizes in a pass are
fixed, so every pass costs about the same and a run always ends on a whole
pass; only coefficients, ``q`` and start values vary with the seed.

A job is one ``gjsmap.cli.main(argv)`` call.  Its check gets the exit code
and captured output, reads any files the job wrote, and returns a list of
problems, each found by comparing against an oracle from :mod:`oracles`
rather than against the program's own formulas.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

import oracles as orc


@dataclass
class Outcome:
    """Exit code (``None`` if ``main`` raised) and captured output of one job."""

    code: Optional[int]
    stdout: str
    stderr: str


@dataclass
class Job:
    """One CLI request with its output check.

    ``config`` is written to ``<out_dir>/../config.json`` before the call
    (batch mode); ``probe`` names the ``(coefficients, d, kind)`` whose
    closure function the traced run evaluates on the solver's grid.
    """

    name: str
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    config: Optional[dict] = None
    probe: Optional[tuple] = None


SHOWCASE_GN = (-1.0, 3.0, -1.0)

#: The CLI's scan defaults: ``--window-size 100`` either side of the vertex,
#: ``--step 1e-4``.
SCAN_WINDOW = 100.0
SCAN_STEP = 1e-4


def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), k])


def _fn_json(coeffs, orientation: str) -> str:
    return json.dumps({"coefficients": [float(c) for c in coeffs], "orientation": orientation})


def _on_payload(check_payload: Callable[[dict], list[str]]) -> Callable[[Outcome], list[str]]:
    """A job check: exit code 0 and JSON on stdout, then ``check_payload`` on it."""

    def check(out: Outcome) -> list[str]:
        if out.code != 0:
            tail = out.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit code {out.code}, expected 0: {tail[0][:300]}"]
        try:
            payload = json.loads(out.stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        return check_payload(payload)

    return check


def _close(name: str, got, want: float, tol: float) -> list[str]:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        return [f"{name} = {got!r}, closed form {want!r} (tol {tol:.3g})"]
    return []


def _close_seq(name: str, got, want, tol: float) -> list[str]:
    if not isinstance(got, list) or len(got) != len(want):
        size = len(got) if isinstance(got, list) else repr(got)
        return [f"{name} has {size} entries, want {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if not abs(a - b) <= tol]
    if bad:
        i = bad[0]
        return [f"{name}[{i}] = {got[i]!r}, closed form {want[i]!r} "
                f"(tol {tol:.3g}, {len(bad)} entries off)"]
    return []


def _passed(name: str, report: dict) -> list[str]:
    if report.get("passed") is not True:
        return [f"{name} failed: max residual {report.get('max_residual')!r} "
                f"> tol {report.get('tol')!r}"]
    return []


def _files_exist(out_dir: Path, names) -> list[str]:
    missing = [n for n in names if not (out_dir / n).is_file() or (out_dir / n).stat().st_size == 0]
    return [f"missing or empty output files {missing}"] if missing else []


# --------------------------------------------------------------- closure-scan

SCAN_DS = (1, 2, 3, 4, 8)


def _weight_quadratic(rng) -> tuple[float, float, float]:
    """A downward quadratic with its vertex between 0.5 and 3.5."""
    return (-rng.uniform(0.25, 1.5), rng.uniform(1.5, 3.5), -rng.uniform(0.5, 1.5))


def _scan_job(coeffs, d: int, kind: str) -> Job:
    vertex = -coeffs[1] / (2.0 * coeffs[2])
    lo, hi = vertex - SCAN_WINDOW, vertex + SCAN_WINDOW
    expected = None
    if d <= orc.EXPAND_MAX_D:
        expected = orc.real_roots(orc.closure_polynomial(coeffs, d, kind), lo, hi)
        if kind == "periodic":
            expected = [x for x in expected if x < vertex]

    def check(payload: dict) -> list[str]:
        problems: list[str] = []
        if kind == "cut":
            included, excluded = payload["included"], payload["excluded"]
            reported = sorted(included + excluded)
        else:
            included, excluded = payload["roots"], []
            reported = included
        if expected is not None:
            spurious, missing = orc.match_roots(reported, expected)
            problems += [f"root {x!r} is not a root of the expanded polynomial" for x in spurious]
            problems += [f"missed root {x!r} of the expanded polynomial" for x in missing]
        else:
            problems += [
                f"root {x!r} fails the exact residual and bracket test"
                for x in reported
                if not orc.confirms_root(coeffs, d, kind, x)
            ]
        for x in included:
            if not x < vertex:
                problems.append(f"included root {x!r} is outside the region x < {vertex!r}")
            elif kind == "cut" and not orc.cut_admissible(coeffs, x, d):
                problems.append(f"included root {x!r} does not head a {d}-state cut rep")
        for x in excluded:
            if x < vertex and orc.cut_admissible(coeffs, x, d):
                problems.append(f"excluded root {x!r} heads a valid {d}-state cut rep")
        return problems

    argv = ["gsl2", kind, "--gn", _fn_json(coeffs, "weight"), "--d", str(d)]
    return Job(f"gsl2 {kind} d={d}", argv, _on_payload(check), probe=(tuple(coeffs), d, kind))


def closure_scan(seed: int, k: int, out_dir: Path) -> list[Job]:
    """Twelve solves: cut and periodic at each d for a fresh quadratic, plus the showcase."""
    rng = _rng(seed, "closure-scan", k)
    jobs = []
    for d in SCAN_DS:
        coeffs = _weight_quadratic(rng)
        jobs += [_scan_job(coeffs, d, "cut"), _scan_job(coeffs, d, "periodic")]
    jobs += [_scan_job(SHOWCASE_GN, 2, "cut"), _scan_job(SHOWCASE_GN, 1, "periodic")]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# --------------------------------------------------------------- shell-verify

Q_SPREAD = 0.004


def _q_near_one(rng) -> float:
    return 1.0 + rng.uniform(-Q_SPREAD, Q_SPREAD)


def _q_pair(q: float) -> tuple[str, str]:
    return _fn_json((1.0, q), "oscillator"), _fn_json((-1.0, q), "weight")


def _jsmap_verify_job(q: float, alpha0: float, two_j: int) -> Job:
    alpha_j = orc.cut_root(q, two_j + 1)
    tol = orc.relation_tol(alpha_j * (alpha_j + 1.0))
    fn, gn = _q_pair(q)

    def check(payload: dict) -> list[str]:
        return _passed("map_vs_direct", payload["map_vs_direct"]) + _passed(
            "relations", payload["relations"]
        )

    argv = [
        "jsmap", "verify", "--fn", fn, "--alpha0", repr(alpha0), "--gn", gn,
        "--alphaj", repr(alpha_j), "--j", f"{two_j}/2", "--kind", "cut", "--tol", repr(tol),
    ]
    return Job(f"jsmap verify 2j={two_j}", argv, _on_payload(check))


def _gsl2_rep_check(q: float, dim: int) -> Callable[[dict], list[str]]:
    """Closed-form check of a ``dim``-state cut representation of ``g = q x - 1``."""
    alpha_j = orc.cut_root(q, dim)
    casimir = alpha_j * (alpha_j + 1.0)
    weights = orc.q_weights(q, alpha_j, dim)
    ladder_sq = [casimir - w * (w + 1.0) for w in weights[1:]]
    tol = orc.iterate_tol(dim, casimir)

    def check_rep(rep: dict) -> list[str]:
        return (
            _close_seq("weights", rep["weights"], weights, tol)
            + _close_seq("ladder_sq", rep["ladder_sq"], ladder_sq, tol)
            + _close("next_weight", rep["next_weight"], -alpha_j - 1.0, tol)
        )

    return check_rep


def _gha_rep_check(q: float, alpha0: float, dim: int) -> Callable[[dict], list[str]]:
    """Closed-form check of a ``dim``-level ladder of ``f = q x + 1``."""
    levels = orc.q_levels(q, alpha0, dim)
    m0_sq = (q - 1.0) * alpha0 + 1.0
    ladder = [math.sqrt(orc.q_number(q, m + 1) * m0_sq) for m in range(dim - 1)]
    tol = orc.iterate_tol(dim, levels[-1])

    def check_rep(rep: dict) -> list[str]:
        return _close_seq("eigenvalues", rep["eigenvalues"], levels, tol) + _close_seq(
            "ladder", rep["ladder"], ladder, tol
        )

    return check_rep


def _verified_build_check(check_rep) -> Callable[[Outcome], list[str]]:
    return _on_payload(
        lambda payload: check_rep(payload["rep"]) + _passed("verification", payload["verification"])
    )


def _gsl2_build_job(q: float, dim: int) -> Job:
    alpha_j = orc.cut_root(q, dim)
    tol = orc.relation_tol(alpha_j * (alpha_j + 1.0))
    argv = [
        "gsl2", "build", "--gn", _q_pair(q)[1], "--alphaj", repr(alpha_j), "--dim", str(dim),
        "--kind", "cut", "--verify", "--tol", repr(tol),
    ]
    return Job(f"gsl2 build dim={dim}", argv, _verified_build_check(_gsl2_rep_check(q, dim)))


def _gha_build_job(q: float, alpha0: float, dim: int) -> Job:
    tol = orc.relation_tol(orc.q_levels(q, alpha0, dim)[-1])
    argv = [
        "gha", "build", "--fn", _q_pair(q)[0], "--alpha0", repr(alpha0), "--dim", str(dim),
        "--verify", "--tol", repr(tol),
    ]
    return Job(f"gha build dim={dim}", argv, _verified_build_check(_gha_rep_check(q, alpha0, dim)))


def shell_verify(seed: int, k: int, out_dir: Path) -> list[Job]:
    """Ten dense verifications: ladders of 601 and 801 states, four 2j = 500
    shells and two 2j = 800 shells, one of them Schwinger's ``q = 1``.

    The 2j = 500 class holds the median and the 2j = 800 class the p90, each
    near its middle rather than on a boundary between sizes.
    """
    rng = _rng(seed, "shell-verify", k)
    jobs = [_gha_build_job(_q_near_one(rng), rng.uniform(0.0, 0.5), dim) for dim in (601, 801)]
    jobs += [_gsl2_build_job(_q_near_one(rng), dim) for dim in (601, 801)]
    jobs += [_jsmap_verify_job(_q_near_one(rng), rng.uniform(0.0, 0.5), 500) for _ in range(4)]
    jobs += [_jsmap_verify_job(_q_near_one(rng), rng.uniform(0.0, 0.5), 800),
             _jsmap_verify_job(1.0, 0.0, 800)]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------- grid-export

#: Full-grid sizes in one pass.  Most are 16, so the median and p75 fall
#: inside one size class.
GRID_SIZES = (12, 12, 16, 16, 16, 16, 16, 16, 16, 22)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _grid_export_job(rng, n: int, out_dir: Path) -> Job:
    """One batch: the full-grid map with ``n * n`` states plus both ladders, all to files."""
    q = _q_near_one(rng)
    alpha0 = rng.uniform(0.0, 0.5)
    alpha_j = orc.cut_root(q, n)
    fn, gn = (json.loads(text) for text in _q_pair(q))
    rep_checks = {"gha": _gha_rep_check(q, alpha0, 2 * n), "gsl2": _gsl2_rep_check(q, n)}
    weights = orc.q_weights(q, alpha_j, n)
    wtol = orc.iterate_tol(n, alpha_j * (alpha_j + 1.0))
    params = {
        "grid": ("jsmap build", {"fn": fn, "alpha0": alpha0, "gn": gn, "alphaj": alpha_j,
                                 "full_grid": n}),
        "gha": ("gha build", {"fn": fn, "alpha0": alpha0, "dim": 2 * n}),
        "gsl2": ("gsl2 build", {"gn": gn, "alphaj": alpha_j, "dim": n, "kind": "cut"}),
    }
    config = {
        "jobs": [
            {"name": name, "command": command,
             "params": {**p, "out": str(out_dir / command.split()[0])},
             "output": str(out_dir / f"{command.split()[0]}.json")}
            for name, (command, p) in params.items()
        ]
    }
    csv_rows = {
        "jsmap": (n * n, ("jsmap_Sz.csv", "jsmap_Splus.csv", "jsmap_Sminus.csv", "jsmap_Ssq.csv")),
        "gha": (2 * n, ("gha_H.csv", "gha_A.csv", "gha_Adag.csv", "gha_N.csv", "gha_casimir.csv")),
        "gsl2": (n, ("gsl2_J0.csv", "gsl2_Jplus.csv", "gsl2_Jminus.csv", "gsl2_casimir.csv")),
    }

    def check(payload: dict) -> list[str]:
        statuses = [(j.get("name"), j.get("status")) for j in payload["jobs"]]
        if statuses != [("grid", "ok"), ("gha", "ok"), ("gsl2", "ok")]:
            return [f"batch statuses {statuses}"]
        problems: list[str] = []
        for sub, (states, names) in csv_rows.items():
            problems += _files_exist(out_dir / sub, names + (f"{sub}_rep.json",))
            problems += _files_exist(out_dir, (f"{sub}.json",))
            if problems:
                return problems
            for name in names:
                with open(out_dir / sub / name, "rb") as fh:
                    lines = fh.read().count(b"\n")
                if lines != states + 1:
                    problems.append(f"{sub}/{name} has {lines} lines, want {states + 1}")
        for sub, check_rep in rep_checks.items():
            rep = json.loads((out_dir / sub / f"{sub}_rep.json").read_text(encoding="utf-8"))
            problems += [f"{sub}: {p}" for p in check_rep(rep)]
        # S_z on the n1-major grid: state (n1, n2) carries alpha_j + Q2 [n2]_q.
        rows = _csv_rows(out_dir / "jsmap" / "jsmap_Sz.csv")[1:]
        diag = [float(row[i + 1]) for i, row in enumerate(rows)]
        want = [weights[i % n] for i in range(n * n)]
        problems += _close_seq("jsmap S_z diagonal", diag, want, wtol)
        return problems

    argv = ["run", "--config", str(out_dir.parent / "config.json")]
    return Job(f"run grid={n}", argv, _on_payload(check), config=config)


def grid_export(seed: int, k: int, out_dir: Path) -> list[Job]:
    """One batch per grid size in ``GRID_SIZES``, in seeded order."""
    rng = _rng(seed, "grid-export", k)
    return [_grid_export_job(rng, int(n), out_dir) for n in rng.permutation(GRID_SIZES)]


# ----------------------------------------------------------------- readme-cli

FIG_SERIES = {"fig1": ("a", "b"), "fig2": ("b",), "fig3": ("a",), "fig4": ("oscillator", "weight")}


def _tangent_oscillator(rng) -> tuple[tuple[float, float, float], float, float]:
    """``(coefficients, fixed point, vertex)`` of a tangent upward quadratic near the README's."""
    t = 2.5 * (1.0 + rng.uniform(-0.05, 0.05))
    b = -2.5 * (1.0 + rng.uniform(-0.05, 0.05))
    s = (b - 1.0) ** 2 / (4.0 * t)
    return (s, b, t), (1.0 - b) / (2.0 * t), -b / (2.0 * t)


def _analyze_job(rng) -> Job:
    coeffs, star, vertex = _tangent_oscillator(rng)
    x0 = vertex + rng.uniform(0.2, 0.8) * (star - vertex)

    def check(payload: dict) -> list[str]:
        fps = payload["fixed_points"]
        disc_tol = 1e-9 * (coeffs[1] - 1.0) ** 2
        problems = _close("discriminant", payload["discriminant"], 0.0, disc_tol)
        problems += _close("boundary", payload["boundary"], vertex, 1e-12)
        if len(fps) != 1 or fps[0]["stability"] != "neutral_tangent":
            return problems + [f"fixed points {fps}, want one neutral tangent point"]
        problems += _close("fixed point", fps[0]["location"], star, 1e-12)
        if payload["region"] != "convergent_interval":
            problems.append(f"region {payload['region']!r}, want 'convergent_interval'")
        return problems

    argv = ["charfun", "analyze", "--fn", _fn_json(coeffs, "oscillator"), "--x0", repr(x0)]
    return Job("charfun analyze", argv, _on_payload(check))


def _small_gha_job(rng, out_dir: Path) -> Job:
    alpha0 = rng.uniform(0.0, 1.0)
    files = [f"gha_{m}.csv" for m in ("H", "A", "Adag", "N", "casimir")] + ["gha_rep.json"]

    def check(payload: dict) -> list[str]:
        rep = payload["rep"]
        levels = [alpha0 + m for m in range(6)]
        problems = _close_seq("eigenvalues", rep["eigenvalues"], levels, 1e-13)
        problems += _close_seq("ladder", rep["ladder"], [math.sqrt(m + 1) for m in range(5)], 1e-13)
        problems += _passed("verification", payload["verification"])
        if payload.get("files") != files:
            problems.append(f"files {payload.get('files')}, want {files}")
        return problems + _files_exist(out_dir, files)

    argv = [
        "gha", "build", "--fn", _fn_json((1.0, 1.0), "oscillator"), "--alpha0", repr(alpha0),
        "--dim", "6", "--verify", "--tol", "1e-10", "--out", str(out_dir),
    ]
    return Job("gha build dim=6", argv, _on_payload(check))


def _showcase_cut_root(b: float = 3.0) -> float:
    """The in-region two-state cut root of ``-x^2 + b x - 1``."""
    vertex = b / 2.0
    roots = orc.real_roots(orc.closure_polynomial((-1.0, b, -1.0), 2, "cut"), -10.0, vertex)
    return max(roots)


def _small_gsl2_job(rng, root: float) -> Job:
    alpha_j = root + rng.uniform(-5e-6, 5e-6)
    next_w = [float(w) for w in orc.orbit_exact(SHOWCASE_GN, alpha_j, 2)]

    def check(payload: dict) -> list[str]:
        rep = payload["rep"]
        problems = _close_seq("weights", rep["weights"], next_w[:2], 1e-13)
        problems += _close("next_weight", rep["next_weight"], next_w[2], 1e-13)
        return problems + _passed("verification", payload["verification"])

    argv = [
        "gsl2", "build", "--gn", _fn_json(SHOWCASE_GN, "weight"), "--alphaj", repr(alpha_j),
        "--dim", "2", "--kind", "cut", "--verify", "--tol", "1e-4",
    ]
    return Job("gsl2 build dim=2", argv, _on_payload(check))


def _small_jsmap_build_job(rng) -> Job:
    q = _q_near_one(rng)
    alpha0 = rng.uniform(0.0, 0.5)
    alpha_j = orc.cut_root(q, 3)
    casimir = alpha_j * (alpha_j + 1.0)
    w = orc.q_weights(q, alpha_j, 3)
    splus = [math.sqrt(casimir - v * (v + 1.0)) for v in w[1:]]
    tol = orc.iterate_tol(3, casimir)
    fn, gn = _q_pair(q)

    def check(payload: dict) -> list[str]:
        problems: list[str] = []
        rep = payload["rep"]
        mats = rep["matrices"]
        if rep["basis"] != [[2, 0], [1, 1], [0, 2]]:
            problems.append(f"basis {rep['basis']}")
        problems += _close_seq("S_z diagonal", [mats["s_z"][i][i] for i in range(3)], w, tol)
        above = [mats["s_plus"][i - 1][i] for i in (1, 2)]
        problems += _close_seq("S_+ superdiagonal", above, splus, tol)
        ssq = [v for row in mats["s_sq"] for v in row]
        problems += _close_seq("S^2", ssq, [casimir if i % 4 == 0 else 0.0 for i in range(9)], tol)
        return problems

    argv = [
        "jsmap", "build", "--fn", fn, "--alpha0", repr(alpha0), "--gn", gn,
        "--alphaj", repr(alpha_j), "--j", "1",
    ]
    return Job("jsmap build j=1", argv, _on_payload(check))


def _small_jsmap_verify_job(rng) -> Job:
    b = 3.0 * (1.0 + rng.uniform(-0.02, 0.02))
    alpha_j = _showcase_cut_root(b)

    def check(payload: dict) -> list[str]:
        return _passed("map_vs_direct", payload["map_vs_direct"]) + _passed(
            "relations", payload["relations"]
        )

    argv = [
        "jsmap", "verify", "--fn", _fn_json((1.0, b, 1.0), "oscillator"),
        "--alpha0", repr(-alpha_j), "--gn", _fn_json((-1.0, b, -1.0), "weight"),
        "--alphaj", repr(alpha_j), "--j", "1/2",
        "--tol", "1e-10", "--kind", "cut", "--cut-tol", "1e-9",
    ]
    return Job("jsmap verify j=1/2", argv, _on_payload(check))


def _pairing_job(rng) -> Job:
    b = 3.0 * (1.0 + rng.uniform(-0.02, 0.02))
    alpha0 = -0.15 * (1.0 + rng.uniform(-0.1, 0.1))

    def check(payload: dict) -> list[str]:
        problems = []
        if payload["gn_derived"] != {"coefficients": [-1.0, b, -1.0], "orientation": "weight"}:
            problems.append(f"gn_derived {payload['gn_derived']} is not the reflection "
                            f"of b = {b!r}")
        if payload["alpha_j"] != -alpha0:
            problems.append(f"alpha_j {payload['alpha_j']!r} != -alpha0")
        if len(payload["report"]["residuals"]) != 11:
            problems.append("pairing report does not cover m = 0..10")
        return problems + _passed("pairing", payload["report"])

    argv = [
        "jsmap", "pairing", "--fn", _fn_json((1.0, b, 1.0), "oscillator"),
        "--alpha0", repr(alpha0), "--mmax", "10", "--tol", "1e-10",
    ]
    return Job("jsmap pairing", argv, _on_payload(check))


def _cobweb_job(rng) -> Job:
    coeffs, star, vertex = _tangent_oscillator(rng)
    x0 = vertex + rng.uniform(0.2, 0.8) * (star - vertex)
    f = Polynomial(coeffs)

    def check(payload: dict) -> list[str]:
        rep = payload["report"]
        xs = rep["iterates"]
        if len(xs) != 51 or xs[0] != x0:
            return [f"{len(xs)} iterates from {xs[:1]}, want 51 from {x0!r}"]
        # One step at a time, so rounding cannot accumulate: x[k+1] = f(x[k]).
        problems = _close_seq("iterates", xs[1:], [float(f(x)) for x in xs[:-1]], 1e-14)
        if rep["region"] != "convergent_interval" or rep["truncated_divergence"]:
            problems.append(f"region {rep['region']!r}, divergence {rep['truncated_divergence']!r}")
        if not x0 < xs[-1] < star:
            problems.append(f"orbit end {xs[-1]!r} does not creep up toward {star!r}")
        return problems

    argv = [
        "orbit", "cobweb", "--fn", _fn_json(coeffs, "oscillator"), "--x0", repr(x0),
        "--steps", "50",
    ]
    return Job("orbit cobweb", argv, _on_payload(check))


def _figure_job(name: str, out_dir: Path) -> Job:
    series = FIG_SERIES[name]
    files = [f"{name}_{s}{ext}" for s in series for ext in (".json", "_curve.csv", "_cobweb.csv")]

    def check(payload: dict) -> list[str]:
        problems = _files_exist(out_dir, files)
        if payload["series"] != list(series) or payload["files"] != files:
            problems.append(f"series {payload['series']}, files {payload['files']}")
        return problems

    argv = ["orbit", "figure", "--name", name, "--out", str(out_dir)]
    return Job(f"orbit figure {name}", argv, _on_payload(check))


def readme_cli(seed: int, k: int, out_dir: Path) -> list[Job]:
    """The README's small commands, two of each with seeded jitter, all four
    figures and one small batch (``run --config`` with a 4 x 4 grid export).

    The small commands make up two thirds of the pass, so the median falls
    inside their class; the cobweb, figure and batch jobs, 3 to 10 times
    slower, form the tail.
    """
    rng = _rng(seed, "readme-cli", k)
    root = _showcase_cut_root()
    jobs = []
    for _ in range(2):
        jobs += [
            _analyze_job(rng),
            _small_gha_job(rng, out_dir),
            _small_gsl2_job(rng, root),
            _small_jsmap_build_job(rng),
            _small_jsmap_verify_job(rng),
            _pairing_job(rng),
        ]
    jobs.append(_cobweb_job(rng))
    jobs += [_figure_job(name, out_dir) for name in FIG_SERIES]
    jobs.append(_grid_export_job(rng, 4, out_dir))
    return [jobs[i] for i in rng.permutation(len(jobs))]


PASSES = {
    "closure-scan": closure_scan,
    "shell-verify": shell_verify,
    "grid-export": grid_export,
    "readme-cli": readme_cli,
}
WORKLOADS = tuple(PASSES)


def make_pass(workload: str, seed: int, k: int, out_dir: Path) -> list[Job]:
    """Pass ``k`` of a workload; jobs that write files write under ``out_dir``."""
    return PASSES[workload](seed, k, out_dir)

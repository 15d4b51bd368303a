"""Tests of the benchmark's own code: oracles, the tail rule, job checks, tracing.

Run from the checkout root::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles as orc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from gjsmap import cli  # noqa: E402

SHOWCASE_CUT_ROOT = 0.33478475026899224


def test_closure_polynomial_reproduces_hand_expanded_quartic():
    # x + g(g(x)) + 1 for g = -x^2 + 3x - 1, as hand-expanded in the test
    # suite's helpers (CUT_QUARTIC_ASCENDING).
    poly = orc.closure_polynomial(wl.SHOWCASE_GN, 2, "cut")
    assert tuple(poly.coef) == (-4.0, 16.0, -14.0, 6.0, -1.0)


def test_real_roots_match_companion_eigenvalues_and_solver():
    poly = orc.closure_polynomial(wl.SHOWCASE_GN, 2, "cut")
    roots = orc.real_roots(poly, -100.0, 100.0)
    eigen = np.roots([-1.0, 6.0, -14.0, 16.0, -4.0])
    expected = sorted(r.real for r in eigen if abs(r.imag) < 1e-9)
    assert roots == pytest.approx(expected, rel=1e-12)
    assert roots[0] == pytest.approx(SHOWCASE_CUT_ROOT, rel=1e-15)


def test_double_root_counts_once():
    # g(x) - x = -(x - 1)^2 for the showcase: a tangent fixed point.
    roots = orc.real_roots(orc.closure_polynomial(wl.SHOWCASE_GN, 1, "periodic"), -5, 5)
    assert roots == pytest.approx([1.0], abs=1e-7)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(19, 100.0, 0), (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (99, 75.0, 24),
     (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))
    p, value, got_beyond = run.tail_percentile(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(s > value for s in samples) == beyond
    assert beyond >= 10 or p == 100.0


def test_q_number_closed_form():
    assert [orc.q_number(1.0, m) for m in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert orc.q_number(2.0, 3) == pytest.approx(7.0, rel=1e-15)
    assert orc.q_number(1.0 + 1e-12, 800) == pytest.approx(800.0, rel=1e-9)


def test_schwinger_limit_of_cut_root_and_weights():
    for d in (1, 2, 3, 801):
        assert orc.cut_root(1.0, d) == (d - 1) / 2
    assert orc.q_weights(1.0, 2.0, 5) == [2.0, 1.0, 0.0, -1.0, -2.0]


def test_exact_root_and_admissibility_oracles():
    assert orc.confirms_root(wl.SHOWCASE_GN, 2, "cut", SHOWCASE_CUT_ROOT)
    assert not orc.confirms_root(wl.SHOWCASE_GN, 2, "cut", SHOWCASE_CUT_ROOT + 1e-3)
    assert orc.cut_admissible(wl.SHOWCASE_GN, SHOWCASE_CUT_ROOT, 2)
    # The fixed point 1 does not descend, so it heads no cut representation.
    assert not orc.cut_admissible(wl.SHOWCASE_GN, 1.0, 2)


def test_relation_tolerance_scales_with_the_representation():
    assert orc.relation_tol(0.5) == orc.relation_tol(1.0) == orc.TOL_FACTOR * orc.EPS
    assert orc.relation_tol(4e4) == pytest.approx(4e4 * orc.relation_tol(1.0))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_passes_are_seeded_and_fixed_in_size(workload, tmp_path):
    def argvs(seed, k):
        return [(job.argv, job.config) for job in wl.make_pass(workload, seed, k, tmp_path)]

    def sizes(seed):
        return sorted(job.name for job in wl.make_pass(workload, seed, 0, tmp_path))

    assert argvs(3, 0) == argvs(3, 0)
    assert argvs(3, 0) != argvs(4, 0) and argvs(3, 0) != argvs(3, 1)
    assert sizes(3) == sizes(4)


def _run(job, out_dir):
    out_dir.mkdir(exist_ok=True)
    if job.config is not None:
        (out_dir.parent / "config.json").write_text(json.dumps(job.config), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(job.argv)
    return wl.Outcome(code, stdout.getvalue(), stderr.getvalue())


def test_checks_accept_real_output_and_reject_a_perturbed_weight(tmp_path):
    job = wl._gsl2_build_job(1.003, 41)
    out = _run(job, tmp_path / "out")
    assert job.check(out) == []
    payload = json.loads(out.stdout)
    payload["rep"]["weights"][7] += 1e-6
    bad = wl.Outcome(out.code, json.dumps(payload), out.stderr)
    assert any("weights[7]" in p for p in job.check(bad))


def test_scan_check_flags_a_missed_root(tmp_path):
    job = wl._scan_job(wl.SHOWCASE_GN, 2, "cut")
    out = _run(job, tmp_path / "out")
    assert job.check(out) == []
    payload = json.loads(out.stdout)
    payload["excluded"] = []
    problems = job.check(wl.Outcome(0, json.dumps(payload), ""))
    assert problems and "missed root" in problems[0]


def test_every_readme_job_passes_its_check(tmp_path):
    for job in wl.make_pass("readme-cli", 5, 0, tmp_path / "out"):
        assert job.check(_run(job, tmp_path / "out")) == [], job.name


def test_tracer_records_spans_and_restores_the_cli(tmp_path):
    tracer = tracing.Tracer()
    job = wl._small_jsmap_build_job(np.random.default_rng(0))
    with tracer.patched(cli), tracer.span(tracing.JOB_SPAN):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(job.argv) == 0
    assert cli.json is json and "print" not in vars(cli)
    assert "parse_args" not in vars(cli._Parser)
    names = {span[3] for span in tracer.spans}
    assert {"cli.dispatch", "cli.parser", "cli.parse", "jsmap.build", "jsmap.to_dict",
            "cli.encode", "cli.write"} <= names
    self_s = tracer.self_times()
    total = tracer.spans[0][5] - tracer.spans[0][4]
    assert sum(self_s.values()) == pytest.approx(total)
    assert tracer.counts["jsmap.states"] == 3 and tracer.counts["jsmap.stored_entries"] == 36

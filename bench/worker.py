"""Run one workload in this process and print its raw measurements as JSON.

Started by ``run.py`` in a fresh interpreter per workload, so the peak
resident memory it reports belongs to that workload alone.  One client runs
a closed loop: each request is a ``gjsmap.cli.main(argv)`` call, issued when
the previous one has returned and been checked.  A run is a fixed number of
passes of the workload's job list, ``round(--seconds / PASS_SECONDS)``, so it
lasts about ``--seconds`` on the reference machine while the sample count,
and with it the tail percentile, does not depend on how fast the machine
happens to be.

With ``--trace 1`` every job runs twice, once plain and once with spans
(order alternating by pass), so the tracing overhead is measured on the same
jobs; the per-layer figures come from the spans.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/worker.py --workload readme-cli --seed 1 --seconds 10 --trace 0 \
        --workdir .bench_out/w
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads as wl
from gjsmap import cli

#: Seconds one pass of requests takes on the reference machine (2-core Xeon,
#: one BLAS thread; medians over ten seeds); a traced pass runs every job twice.
PASS_SECONDS = {"closure-scan": 5.9, "shell-verify": 2.05, "grid-export": 7.0, "readme-cli": 0.18}

#: Cold starts per run, spread evenly over the passes so they meet the same
#: load as the requests do.
SETUP_SAMPLES = 7

COLD_START = (
    "import time; t0 = time.perf_counter(); import gjsmap.cli as c; t1 = time.perf_counter(); "
    "c.build_parser(); t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

#: Stop starting passes after this much wall time, whatever ``--seconds`` says.
MAX_WALL_S = 120.0


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def execute(job: wl.Job, out_dir: Path, tracer=None):
    """Run one request; returns ``(seconds, outcome, bytes written)``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if job.config is not None:
        (out_dir.parent / "config.json").write_text(json.dumps(job.config), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    traced = tracer.patched(cli) if tracer is not None else contextlib.nullcontext()
    span = tracer.span(tracing.JOB_SPAN) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with traced, span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(job.argv)
    except Exception:
        code = None
        stderr.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    text = stdout.getvalue()
    outcome = wl.Outcome(code, text, stderr.getvalue())
    return elapsed, outcome, len(text.encode("utf-8")) + _tree_bytes(out_dir)


def cold_start() -> tuple[float, float, float]:
    """``(wall, import, build_parser)`` seconds of one fresh interpreter start."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                          timeout=60, check=True)
    wall = time.perf_counter() - start
    import_s, parser_s = (float(v) for v in proc.stdout.split())
    return wall, import_s, parser_s


def blas_info() -> dict:
    """BLAS name and version from numpy's build, and its thread count at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"gjsmap imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    passes = 0
    out_dir = args.workdir / "out"
    latencies: list[float] = []
    traced_s = untraced_s = 0.0
    first_pass_bytes = 0
    failures: list[dict] = []
    attempted = 0
    planned = max(1, round(args.seconds / (PASS_SECONDS[args.workload] * (1 + args.trace))))
    setup_at = [i * planned // SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    setup = []
    wall_start = time.perf_counter()
    for k in range(planned):
        if time.perf_counter() - wall_start > MAX_WALL_S:
            break
        setup += [cold_start() for _ in range(setup_at.count(k))]
        for i, job in enumerate(wl.make_pass(args.workload, args.seed, k, out_dir)):
            job_id = f"{k}.{i}"
            if tracer is None:
                modes = (None,)
            else:
                tracer.job = job_id
                modes = (None, tracer) if k % 2 == 0 else (tracer, None)
            for mode in modes:
                elapsed, outcome, nbytes = execute(job, out_dir, mode)
                problems = job.check(outcome)
                attempted += 1
                if mode is None:
                    latencies.append(elapsed)
                    untraced_s += elapsed
                    if k == 0:
                        first_pass_bytes += nbytes
                else:
                    traced_s += elapsed
                    if job.probe is not None:
                        tracing.grid_probe(tracer, *job.probe, wl.SCAN_WINDOW, wl.SCAN_STEP)
                if problems:
                    failures.append({"job": job_id, "name": job.name, "traced": mode is not None,
                                     "argv": job.argv, "problems": problems})
        passes = k + 1
    shutil.rmtree(out_dir, ignore_errors=True)
    (args.workdir / "config.json").unlink(missing_ok=True)

    result = {
        "passes": passes,
        "setup": setup,
        "planned_passes": planned,
        "latencies_s": latencies,
        "busy_s": untraced_s,
        "first_pass_bytes": first_pass_bytes,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": blas_info(),
    }
    if tracer is not None:
        result["trace"] = {
            "jobs": len(latencies),
            "self_s": tracer.self_times(),
            "counts": dict(tracer.counts),
            "traced_s": traced_s,
            "untraced_s": untraced_s,
            "spans": len(tracer.spans),
        }
        tracer.dump(args.workdir / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

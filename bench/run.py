"""gjsmap benchmark: one command for every end-to-end or per-layer metric.

Run from the root of a checkout (the program is imported from ``./src``)::

    python3 bench/run.py --workload closure-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a fresh ``bench/worker.py`` process (one client, closed
loop) with BLAS pinned to ``BLAS_THREADS`` threads; ``setup_s`` is the median
of cold starts of a fresh interpreter that imports ``gjsmap.cli`` and builds
the parser, spread over the run.  The report lists every metric by name
and unit, the environment, and each failed output check by job; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from spans.  The exit code is 1 if any output check
failed and 2 if the checkout has no ``src/gjsmap`` to measure.  Results and
spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170.0
OUT_DIR = Path(".bench_out")


def tail_percentile(samples, min_beyond: int = 10):
    """The highest standard percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value, beyond)`` by nearest rank.  With fewer than
    ``2 * min_beyond`` samples no percentile qualifies and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for permille in (999, 990, 950, 900, 750, 500):
        rank = -(-permille * n // 1000)
        if n - rank >= min_beyond:
            return permille / 10, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _git_sha(root: Path):
    head = _read(str(root / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(str(root / ".git" / ref)).strip()
    if sha:
        return sha
    for line in _read(str(root / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(root: Path) -> dict:
    """Interpreter, machine and checkout facts recorded with every result."""
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = (_read(str(index / f)).strip() for f in ("level", "size"))
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "git_sha": _git_sha(root),
        "blas_threads_requested": BLAS_THREADS,
        "pytest_benchmark": "installed but not used; the benchmark needs no test extras",
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env(root)
    workdir = OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["workdir"] = str(workdir)
    return raw


def end_to_end(raw: dict) -> tuple[dict, str]:
    lat = raw["latencies_s"]
    pct, tail, beyond = tail_percentile(lat)
    metrics = {
        "jobs_per_s": (len(lat) / raw["busy_s"], "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (raw["peak_rss_kib"] * 1024 / 1e6, "MB"),
        "output_mb": (raw["first_pass_bytes"] / 1e6, "MB"),
        "setup_s": (statistics.median(s[0] for s in raw["setup"]), "s"),
    }
    note = f"job_tail_ms is p{pct:g} of {len(lat)} requests ({beyond} beyond it)"
    return metrics, note


def per_layer(raw: dict) -> tuple[dict, str]:
    """Self time (``_ms``) or count per traced job for each layer in ``BENCHMARK.json``."""
    trace = raw["trace"]
    jobs = trace["jobs"]
    self_s, counts = trace["self_s"], trace["counts"]
    stored = counts.get("jsmap.stored_entries", 0.0)
    overhead = 100.0 * (trace["traced_s"] - trace["untraced_s"]) / trace["untraced_s"]
    nonzero = counts.get("jsmap.nonzero_entries", 0.0)
    derived = {
        "jsmap.nonzero_fraction": nonzero / stored if stored else 0.0,
        "cli.import_s": statistics.median(s[1] for s in raw["setup"]),
        "trace.overhead_pct": overhead,
    }
    metrics = {}
    for layer in json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]:
        name = layer["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith("_ms"):
            value = self_s.get(name[:-3], 0.0) * 1e3 / jobs
        else:
            value = counts.get(name, 0.0) / jobs
        metrics[name] = (value, layer["unit"])
    note = (f"{jobs} jobs traced, {trace['spans']} spans; tracing overhead {overhead:+.2f}% "
            f"({trace['traced_s']:.3f} s traced vs {trace['untraced_s']:.3f} s plain)")
    return metrics, note


def report(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    raw = run_workload(root, workload, seed, seconds, trace)
    metrics, note = per_layer(raw) if trace else end_to_end(raw)
    attempted, failed = raw["attempted"], len(raw["failures"])
    env = {**environment(root), **raw["env"], "workload": workload, "seed": seed,
           "seconds": seconds, "trace": trace}
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {trace}, "
          f"{raw['passes']} of {raw['planned_passes']} planned passes)")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>16.6f} {unit}")
    print(f"  {'failed_ratio':<24} {failed / attempted:>16.6f} ({failed}/{attempted} jobs)")
    print(f"  {note}")
    setup_walls = ", ".join(f"{s[0]:.3f}" for s in raw["setup"])
    print(f"  setup_s is the median of {len(raw['setup'])} cold starts: {setup_walls} s")
    for failure in raw["failures"]:
        print(f"  FAILED job {failure['job']} {failure['name']}: {'; '.join(failure['problems'])}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    record = {**result, "env": env, "note": note, "failures": raw["failures"],
              "setup_samples": raw["setup"], "passes": raw["passes"]}
    Path(raw["workdir"], "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                                   encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "gjsmap" / "cli.py").is_file():
        print(f"no src/gjsmap/cli.py under {root}; run from the root of a gjsmap checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: report(root, name, args.seed, args.seconds, args.trace) for name in names}
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

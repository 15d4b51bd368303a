"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``bench/run.py`` once per seed for one workload and prints, for every
end-to-end metric in ``BENCHMARK.json``, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile distance as a
share of the median, next to the metric's bound.  A benchmark is steady when
each share (``setup_s`` aside) is below a third of its bound.  From the
checkout root::

    python3 bench/spread.py --workload closure-scan --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        if cmd[0] == "python3":
            cmd[0] = sys.executable
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: exit {proc.returncode}, "
              f"failed {result['failed']}/{result['attempted']}, {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        flag = "" if share < metric["bound"] / 3 else "  <- above bound/3"
        print(f"{metric['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f} "
              f"{metric['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

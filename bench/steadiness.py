"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/steadiness.py --workloads simulate-sweep verify-oracles --seeds 1 2 3 4 5

runs bench/run.py once per (workload, seed), one after another, and prints
per metric the median, the first and third quartiles and the interquartile
distance as a share of the median (statistics.quantiles, n=4), plus the
share of failed ops.  Raw results go to bench/out/steadiness-<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("verify-oracles", "simulate-sweep")
EXTRA_WORKLOADS = ("relation-inverse", "simulate-long")


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="latest")
    args = parser.parse_args(argv)

    raw: dict = {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print("%s seed %d: no result (exit %d)\n%s" % (name, seed, proc.returncode, proc.stderr))
                return 1
            res["seed"], res["wall_s"] = seed, wall
            runs.append(res)
            print("%s seed %d: %.1f s, correct=%s attempted=%d failed=%d %s" % (
                name, seed, wall, res["correct"], res["attempted"], res["failed"],
                " ".join("%s=%.6g" % (k, m["value"]) for k, m in res["metrics"].items())), flush=True)
        raw[name] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("%s: failed share %s, all correct %s, %.0f s per run" % (
            name, sorted(shares), all(r["correct"] for r in runs), statistics.mean(r["wall_s"] for r in runs)))
        for metric in runs[0]["metrics"]:
            s = spread([r["metrics"][metric]["value"] for r in runs])
            print("    %-40s median %12.6g  q1 %12.6g  q3 %12.6g  iqr/median %.4f"
                  % (metric, s["median"], s["q1"], s["q3"], s["iqr_share"]), flush=True)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / ("steadiness-%s.json" % args.tag)).write_text(json.dumps(raw, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

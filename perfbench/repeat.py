#!/usr/bin/env python3
"""Repeatability report: runs workloads over several seeds and prints, for
every end-to-end metric, its median, quartiles, spread and largest
run-to-run difference.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--sets 1] [--seconds S]

Spread is the interquartile range over the median, as
statistics.quantiles(values, n=4) gives the quartiles; range is
(max - min) / median. A metric is flagged when its spread exceeds a tenth
or a third of its bound in BENCHMARK.json. With --sets 2 the same seeds
run twice and the second set's median is compared with the first's.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {result.returncode}")
    report = json.loads(lines[-1])
    if not report["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run")
    return {name: m["value"] for name, m in report["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    flagged = []
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            runs = [run_once(workload, args.first_seed + i, args.seconds)
                    for i in range(args.seeds)]
            sets.append({name: [r[name] for r in runs] for name in bounds})
        print(f"\n{workload} ({args.seeds} seeds x {args.sets} set(s), {args.seconds} s runs)")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'range':>7} {'bound':>6} {'set2/set1':>9}")
        for name, bound in bounds.items():
            values = sets[0][name]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            span = (max(values) - min(values)) / median
            drift = ""
            if args.sets > 1:
                drift = f"{statistics.median(sets[1][name]) / statistics.median(values):9.4f}"
            mark = ""
            if name != "setup_s" and (spread > 0.1 or spread > bound / 3):
                mark = "  <-- spread"
                flagged.append(f"{workload}/{name}")
            print(f"  {name:18} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{span:7.3f} {bound:6.2f} {drift}{mark}")
    if flagged:
        print("\nmetrics not repeating within a tenth or a third of their bound: " +
              ", ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the benchmark's workloads with several seeds and prints the spreads.

Usage (from the repository root):

    python3 reqbench/spread.py                      # every workload, 10 seeds
    python3 reqbench/spread.py --workload mixed_rw --runs 5
    python3 reqbench/spread.py --runs 1             # one run of each workload

Each run prints its `metric` lines: every end-to-end metric by name and
unit, including the ones left out of the JSON result. With two or more runs,
it then prints, for each metric of the JSON result, the median over the runs
and the interquartile range (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound from BENCHMARK.json. A benchmark is
steady when each spread stays well below its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(workload, args, bounds):
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(ROOT, "reqbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: exit {res.returncode}\n"
                     f"{res.stderr}")
        result = json.loads(lines[-1])
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in lines:
            if line.startswith(("metric ", "layer ")):
                print("  " + line)
        sys.stdout.flush()
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    if args.runs < 2:
        return
    print(f"{workload}: spread over {args.runs} seeds")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"  {name:42s} median={med:12.5g} spread={spread:7.4f}"
              + (f" bound={bound}" if bound is not None else ""))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workload or names:
        run_workload(workload, args, bounds)


if __name__ == "__main__":
    main()

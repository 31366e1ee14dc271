#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

Runs the benchmark command `--runs` times per workload, each with another
seed, and reports for every end-to-end metric the median and the distance
between the first and third quartile as a share of the median (quartiles
from `statistics.quantiles(values, n=4)`). A spread of a third of the
metric's bound or more is flagged. With `--sets 2` the whole measurement
is repeated and the second set's median is compared with the first's:
getting worse by more than the bound is flagged too. Every run must exit
0 and report `correct` with no failed operations.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--sets 1] [--workload NAME ...]

Exits 1 if anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']}\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def measure_set(bench, workloads, runs, first_seed):
    medians, flagged = {}, []
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(runs):
            metrics = run_once(bench["command"], workload, first_seed + i,
                               bench["run_seconds"])
            for name in values:
                values[name].append(metrics[name])
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = spread >= m["bound"] / 3
            if flag:
                flagged.append(f"{workload} {m['name']} spread {spread:.4f}")
            medians[(workload, m["name"])] = med
            print(f"{workload:15} {m['name']:15} median {med:<14.6g} "
                  f"spread {spread:.4f} bound {m['bound']:.2f}"
                  f"{'  FLAG' if flag else ''}", flush=True)
            print("    runs: " + " ".join(f"{v:.5g}" for v in vals), flush=True)
    return medians, flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append")
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    flagged, sets = [], []
    for s in range(opts.sets):
        print(f"== set {s + 1}", flush=True)
        medians, f = measure_set(bench, workloads, opts.runs, 1 + s * opts.runs)
        sets.append(medians)
        flagged += f
    for later in sets[1:]:
        print("== second set against first")
        for m in bench["end_to_end"]:
            for workload in workloads:
                first, second = sets[0][(workload, m["name"])], later[(workload, m["name"])]
                worse = (second - first) / first
                if m["better"] == "higher":
                    worse = -worse
                flag = worse > m["bound"]
                if flag:
                    flagged.append(f"{workload} {m['name']} worse by {worse:.4f}")
                print(f"{workload:15} {m['name']:15} {first:<14.6g} -> {second:<14.6g} "
                      f"worse by {worse:+.4f}{'  FLAG' if flag else ''}")
    if flagged:
        print("flagged:\n  " + "\n  ".join(flagged))
        sys.exit(1)
    print("all spreads below a third of their bounds")


if __name__ == "__main__":
    main()

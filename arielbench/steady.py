#!/usr/bin/env python3
"""Steadiness self-check for the benchmark in BENCHMARK.json.

Runs every workload (or those named) in two separate sets of N runs, each
run with its own seed, and reports for every end-to-end metric each set's
median and quartiles and its spread: the distance between the quartiles
as a share of the median. It fails when a spread exceeds the metric's
bound, or when a later set's median differs from the first's, in either
direction, by more than the bound. A spread above a third of the bound is
flagged as not yet steady.

Run from the repository root:

    python3 arielbench/steady.py                 # 2 sets x 10 runs, all workloads
    python3 arielbench/steady.py --runs 5 --sets 1 --workloads rule-fanout
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    return result, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    # values[workload][set][metric] -> list
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)] for w in workloads}
    seed = args.seed_base
    for s in range(args.sets):
        for w in workloads:
            for _ in range(args.runs):
                result, wall = run_once(spec["command"], w, seed, seconds)
                for m in metrics:
                    values[w][s][m["name"]].append(result["metrics"][m["name"]]["value"])
                brief = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                 for m in metrics)
                print(f"set {s + 1} {w} seed {seed}: {wall:.1f}s {brief}", file=sys.stderr)
                seed += 1

    failed = False
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                med, q1, q3, spread = summary(values[w][s][name])
                medians.append(med)
                verdict = "ok"
                if spread > bound / 3:
                    verdict = "wide (> bound/3)"
                if spread > bound:
                    verdict = "FAIL (> bound)"
                    failed = True
                print(f"{name:<16} {s + 1:>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                      f"{spread:>7.3f} {bound:>6.2f}  {verdict}")
            for s in range(1, args.sets):
                change = medians[s] / medians[0] - 1
                apart = abs(change) > bound
                if apart:
                    failed = True
                print(f"{name:<16} set {s + 1} vs 1: median {change:+.3f}"
                      f"{'  FAIL (sets differ by more than the bound)' if apart else ''}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

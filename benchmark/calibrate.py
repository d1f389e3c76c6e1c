#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark --runs times per workload, each with another seed,
and prints for every end-to-end metric the median, the interquartile
range as a share of the median (statistics.quantiles(n=4)) over all
runs, and the metric's bound from BENCHMARK.json. With --sets 2 the
runs alternate between two sets A and B, and the table adds how far
set B's median lies from set A's. Each run's values go to stderr.
Run from the repository root:

    python3 benchmark/calibrate.py --workloads figs,serve --runs 10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed: {out}")
    return {k: v["value"] for k, v in out["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="figs,sweep,serve,cluster")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload, split over the sets")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    print("| workload | metric | median | IQR/median | bound | set B vs A |")
    print("|---|---|---|---|---|---|")
    for wl in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            seed = args.first_seed + i
            vals = run_once(wl, seed, seconds)
            sets[i % args.sets].append(vals)
            sys.stderr.write(f"{wl} seed {seed}: {json.dumps(vals)}\n")
        for name, bound in bounds.items():
            every = [r[name] for runs in sets for r in runs]
            gap = ""
            if args.sets == 2:
                a, b = ([r[name] for r in runs] for runs in sets)
                gap = f"{statistics.median(b) / statistics.median(a) - 1:+.3f}"
            print(f"| {wl} | {name} | {statistics.median(every):.6g} | {spread(every):.3f} | {bound} | {gap} |", flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check for the netfi benchmark.

Runs every workload (or the ones named) a given number of times, each run
in its own process with its own seed (1, 2, ... up to --runs), and prints for each end-to-end
metric its median, its quartiles and the interquartile range as a share
of the median -- the figure `BENCHMARK.json`'s bounds are set against.
It also prints each set's share of failed operations.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads fabric-1000 --seconds 10

Set CARGO_TARGET_DIR to keep the build out of the tree (the default
target directory is perfbench/target).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output\n{out.stderr}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", nargs="*", default=names, choices=names)
    a = p.parse_args()
    metrics = spec["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    worst = 0.0
    for workload in a.workloads:
        values = {m["name"]: [] for m in metrics}
        attempted = failed = 0
        correct = True
        for seed in range(1, a.runs + 1):
            r = run_once(spec["command"], workload, seed, a.seconds)
            correct &= r["correct"]
            attempted += r["attempted"]
            failed += r["failed"]
            for name in values:
                values[name].append(r["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: "
                  + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                  file=sys.stderr, flush=True)
        print(f"{workload}: {a.runs} runs, correct={correct}, "
              f"failed share {failed}/{attempted}")
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            worst = max(worst, spread / bound)
            print(f"  {name:<14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}  bound {bound}"
                  f"  spread/bound {spread / bound:.2f}")
    print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()

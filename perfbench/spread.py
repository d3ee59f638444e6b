#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
        [--seconds 20] [--trace 0|1]

For each workload and metric it prints the median of the runs, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
Exits 1 if a run fails or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", default="0", choices=["0", "1"])
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {out.returncode})")
                ok = False
                continue
            digest = next((l for l in lines if l.startswith("digest ")), "").split(" (")[0]
            shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                             if k in bounds)
            print(f"{workload} seed {seed}: {digest} {shown}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {workload:14s} {name:26s} median {med:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload at several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-repeat --seeds 1-10 [--seconds N] [--trace 0]

For every metric prints the median over the runs and the distance between
the first and third quartiles as a share of the median (the steadiness
figure BENCHMARK.json's bounds are checked against).  Run from the root
of a checkout; it invokes perfbench/run.py once per seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--verbose", action="store_true", help="print each run's notes")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        started = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        took = time.monotonic() - started
        if args.verbose:
            print(out.stdout.rstrip())
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        flag = "" if result["correct"] and result["failed"] == 0 else "  NOT CLEAN"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}{flag}"
              f" ({took:.0f} s)", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  {'OK' if spread <= bound / 3 else 'WIDE'}"
        print(f"{name:36} median {med:<14.6g} spread {spread:.4f}{note}")
        print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()

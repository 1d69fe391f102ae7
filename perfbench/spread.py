#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's median
and quartile spread (Q3 - Q1 over the median, by statistics.quantiles),
next to its bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload multicore --seeds 1-10 [--trace 0]

Run from the repository root. Each run's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs("perfbench/out", exist_ok=True)
    log = open(f"perfbench/out/spread-{args.workload}.jsonl", "a")

    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        log.write(json.dumps({"seed": seed, **result}) + "\n")
        log.flush()
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"\n{'metric':<28} {'median':>14} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / abs(med) if med else float("nan")
        bound = bounds.get(k)
        ratio = f"{spread / bound:12.2f}" if bound else ""
        print(f"{k:<28} {med:>14.6g} {spread:>8.4f} {bound or '':>6} {ratio}")


if __name__ == "__main__":
    main()

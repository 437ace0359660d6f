#!/usr/bin/env python3
"""Runs perfbench workloads on several seeds and prints each metric's
median and quartile spread (IQR / median), the steadiness figure the
bounds in BENCHMARK.json are checked against.

Usage, from the repository root:

    python3 perfbench/spread.py [--runs N] [--sets S] [--first-seed K] [--trace 0|1] WORKLOAD...

Runs are interleaved: seed by seed, each workload in turn, so host
drift over a long series of runs spreads across workloads instead of landing on
one. With `--sets 2` or more, every set repeats the same seeds, and
each metric also shows how far each set's median lies from the first
set's, as a share of it (the figure a later comparison of two sets of
one commit is held to).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """One run: (metrics dict or None, wall seconds)."""
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {out.returncode}", flush=True)
        return None, wall
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", flush=True)
    return {k: m["value"] for k, m in result["metrics"].items()}, wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    # values[workload][set][metric] -> list; walls[workload] -> list
    values = {w: [{} for _ in range(args.sets)] for w in args.workloads}
    walls = {w: [] for w in args.workloads}
    for s in range(args.sets):
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for workload in args.workloads:
                metrics, wall = run_once(workload, seed, bench["run_seconds"], args.trace)
                walls[workload].append(wall)
                for name, v in (metrics or {}).items():
                    values[workload][s].setdefault(name, []).append(v)
    for workload in args.workloads:
        wall = walls[workload]
        print(f"{workload}: {len(wall)} runs in {args.sets} set(s), "
              f"wall max {max(wall):.1f} s, mean {statistics.mean(wall):.1f} s")
        for name in values[workload][0]:
            bound = bounds.get(name)
            first_med = None
            for s, per_set in enumerate(values[workload]):
                vs = per_set.get(name, [])
                if not vs:
                    continue
                med, sp = spread(vs)
                flag = ""
                if bound is not None and name != "setup_s" and sp >= bound / 3:
                    flag = "  <-- above bound/3"
                gap = ""
                if first_med is None:
                    first_med = med
                elif first_med:
                    g = (med - first_med) / first_med
                    gap = f"  gap {g:+.4f}"
                    if bound is not None and abs(g) > bound:
                        gap += "  <-- beyond bound"
                print(f"  {name:32s} set {s + 1} median {med:12.5g}  spread {sp:7.4f}"
                      f"  bound {bound}{gap}{flag}")
                print("      " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()

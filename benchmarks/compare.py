#!/usr/bin/env python3
"""Two (or more) sets of benchmark runs of the same code, side by side.

    python3 benchmarks/compare.py --runs 10            # 2 sets x 10 runs x 2 workloads
    python3 benchmarks/compare.py --runs 5 --sets 1    # one set: spreads only

Each run is ``run.py`` on a workload of BENCHMARK.json for its
``run_seconds``, with its own seed, counting up from FIRST_SEED. For every
workload and end-to-end metric it prints each set's median, first and third
quartile and spread (quartile distance over the median), then whether every
spread stays within the metric's bound and whether the last set's median
lies within the bound of the first set's, in either direction: for the same
code, a set that reads much better is as unsteady as one that reads worse.
The failed share of operations must be exactly equal in every set. Raw
results go to ``benchmarks/results/compare-*.json``; the exit code is 0 when
all agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 101


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {(s, w): [] for s in range(args.sets) for w in workloads}
    seed = FIRST_SEED
    for s in range(args.sets):
        for i in range(args.runs):
            # alternate the workload order so neither always runs first
            for w in workloads if i % 2 == 0 else list(reversed(workloads)):
                t = time.perf_counter()
                res = run_once(w, seed, seconds)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: {time.perf_counter() - t:.0f} s, "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']}", file=sys.stderr)
                results[(s, w)].append({"seed": seed, **res})
                seed += 1

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w", encoding="ascii") as fh:
        json.dump({f"set{s + 1}/{w}": v for (s, w), v in results.items()}, fh, indent=1)

    ok = True
    header = f"{'workload':8} {'metric':14} {'bound':>5}"
    for s in range(args.sets):
        header += f" | {'median':>11} {'q1':>11} {'q3':>11} {'spread':>6}"
    print(header + (" | shift  agree" if args.sets > 1 else ""))
    for w in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for s in range(args.sets) for r in results[(s, w)]}
        correct = all(r["correct"] for s in range(args.sets) for r in results[(s, w)])
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            line = f"{w:8} {name:14} {bound:5.2f}"
            meds = []
            agree = True
            for s in range(args.sets):
                med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in results[(s, w)]])
                meds.append(med)
                line += f" | {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:6.3f}"
                if spread > bound:
                    agree = False
            if args.sets > 1:
                worse = (meds[-1] - meds[0]) / meds[0] * (1 if lower else -1)
                agree = agree and abs(worse) <= bound
                line += f" | {worse:+6.3f} {'yes' if agree else 'NO'}"
            ok = ok and agree
            print(line)
        share_text = ", ".join(str(x) for x in sorted(shares))
        print(f"{w:8} failed share {share_text} ({'equal' if len(shares) == 1 else 'DIFFERS'}), correct={correct}")
        ok = ok and len(shares) == 1 and correct
    print(f"raw results: {os.path.relpath(out, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

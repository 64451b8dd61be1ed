#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, compared within the bounds.

    python3 perfbench/steadiness.py                       # 2 sets x 10 runs, every workload
    python3 perfbench/steadiness.py --workloads serve-b30 --runs 5

Every run gets its own seed, from `--seed-base` up; each run lasts the
`run_seconds` of BENCHMARK.json. For each workload and end-to-end metric
it prints each set's median and quartiles, the spread (q3 - q1) / median,
and whether the spread stays within the metric's bound and the second
set's median is no worse than the first's by more than the bound. Exits 1
if any check fails.
"""

import argparse
import statistics
import sys

from run import build, load_spec, run_one


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative: better)."""
    if metric["better"] == "lower":
        return second / first - 1.0
    return first / second - 1.0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                got = run_one(binary, workload, seed, spec["run_seconds"], 0, echo=False)
                if got is None or not got[1]["correct"] or got[1]["failed"]:
                    print(f"{workload} seed {seed}: run failed or incorrect", file=sys.stderr)
                    return 1
                runs.append({k: v["value"] for k, v in got[1]["metrics"].items()})
                print(f"{workload} set {s} seed {seed}: done", file=sys.stderr)
            sets.append(runs)
        print(f"\n{workload}")
        print(f"  {'metric':<26} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                if spread > bound:
                    verdict, ok = "TOO WIDE", False
                elif spread > bound / 3:
                    verdict = "within bound, above bound/3"
                else:
                    verdict = "steady"
                print(f"  {name:<26} {s:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>7.3f} {bound:>6.2f}  {verdict}")
            w = worse_by(metric, medians[0], medians[1])
            agree = w <= bound
            ok &= agree
            print(f"  {name:<26}  second set worse by {w:+.3f}: "
                  f"{'agree' if agree else 'DISAGREE'}")
    print("\nsteadiness:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

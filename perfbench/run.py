#!/usr/bin/env python3
"""Benchmark entry point: builds `wfbn-perfbench` from source and runs it.

    python3 perfbench/run.py --workload build-alarm --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced then traced

Run from the repository root. The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build` in the current directory). The last line of
stdout is the JSON result of the run; its metric names are checked against
`BENCHMARK.json` before it is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(os.path.abspath(target), "release", "wfbn-perfbench")


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload in its own process; returns (last line, parsed
    result) or None. With `echo`, the run's other stdout lines pass through."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if done.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not a JSON result", file=sys.stderr)
        return None
    return lines[-1], result


def declared_names(spec, trace):
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        plan = [(args.workload, args.trace)]
    else:
        plan = [(w, t) for t in (0, 1) for w in names]
    for workload, trace in plan:
        got = run_one(binary, workload, args.seed, args.seconds, trace)
        if got is None:
            return 1
        line, result = got
        printed = set(result.get("metrics", {}))
        if printed != declared_names(spec, trace):
            missing = sorted(declared_names(spec, trace) - printed)
            extra = sorted(printed - declared_names(spec, trace))
            print(f"perfbench: metric names differ from BENCHMARK.json: "
                  f"missing {missing}, undeclared {extra}", file=sys.stderr)
            return 3
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload approx --seed 1 --seconds 20 --trace 0

Builds the benchmark program (perfbench/e2e_bench.cc plus the congress
library from src/) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs it. Build
output goes to stderr. The program's stdout is passed through; its last
line is the JSON result. Exits non-zero, without a result, when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("approx", "exact", "budget")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "e2e_bench",
         "--parallel", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

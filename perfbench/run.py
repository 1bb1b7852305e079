#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

    python3 perfbench/run.py --workload tcp-small --seed 1 --seconds 20 --trace 0

Run from the repository root. The driver (perfbench/src) and the library
sources (src/) are compiled into .bench_build/perfbench (an incremental
no-op once built); build output goes to stderr. The driver's notes and its
one-line JSON result go to stdout, the result last. Traced runs
(--trace 1) also write their kept spans under .bench_build/perfbench-traces.

Exit status: 0 with a result, non-zero without one (build failure, driver
failure, missing sources, timeout).
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("tcp-small", "sim-batched-1k", "churn-explore")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DRIVER_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.spans" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print("perfbench: driver failed (exit %d)" % done.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

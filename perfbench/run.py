#!/usr/bin/env python3
"""Builds and runs the ADR serving benchmark.

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20      # every workload
    python3 perfbench/run.py --selftest                       # oracle/quantile tests

Run from the repository root.  The first call configures and builds a
Release tree in .bench_build/ (the library sources come from src/);
later calls rebuild only what changed.  Build output goes to stderr, so
the last line of standard output is the benchmark's JSON result.  Spans
and farms live under .bench_build/out/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ["cold_scan", "hot_overlap", "write_mix"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return False


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", BUILD, "-j", "4"], BUILD_TIMEOUT_S)


def run_bench(workload, seed, seconds, trace):
    cmd = [os.path.join(BUILD, "adr_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", OUT]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 3


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if args.all:
        worst = 0
        for w in WORKLOADS:
            worst = max(worst, run_bench(w, args.seed, args.seconds, args.trace))
        return worst
    if args.workload is None:
        ap.error("--workload, --all or --selftest is required")
    return run_bench(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

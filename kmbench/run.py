#!/usr/bin/env python3
"""Builds and runs the k-mismatch service benchmark.

    python3 kmbench/run.py --workload serve_probe --seed 1 --seconds 10 --trace 0
    python3 kmbench/run.py --test        # the benchmark's own unit tests

Run from the repository root. The library and the kmbench program are built
from source into .bench_build/kmbench (build output goes to stderr). Each run
generates its inputs from the seed into a work directory under .bench_build,
measures in a separate process, and removes the inputs afterwards. The last
stdout line is the result JSON object.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "kmbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "kmbench")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    try:
        if args.test:
            return subprocess.run([build("kmbench_test")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build("kmbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"kmbench: build failed: {error}", file=sys.stderr)
        return 2

    work = os.path.join(OUT_DIR, "kmbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    traces = os.path.join(OUT_DIR, "kmbench-traces")
    os.makedirs(traces, exist_ok=True)
    try:
        gen = subprocess.run([binary, "gen", "--workload", args.workload,
                              "--seed", str(args.seed), "--dir", work],
                             stdout=sys.stderr, timeout=120)
        if gen.returncode != 0:
            return gen.returncode
        trace_out = os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")
        run = subprocess.run([binary, "run", "--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--dir", work,
                              "--trace-out", trace_out], timeout=170)
        return run.returncode
    except subprocess.TimeoutExpired as error:
        print(f"kmbench: timed out: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build tree is $CARGO_TARGET_DIR
(default .bench_build); run files go to perfbench/.work and are removed
when the run ends. Build output goes to stderr, so the last stdout line is
the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("inmem_mc", "paged_shards", "live_churn", "wire_loopback")


def build(bench_dir, build_dir):
    """Configures (once) and builds perfbench and gprq_server."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    command = ["cmake", "--build", build_dir, "-j", jobs,
               "--target", "perfbench", "gprq_server"]
    return subprocess.call(command, stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(bench_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(bench_dir, ".work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--server-bin", os.path.join(build_dir, "gprq_server")]
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())

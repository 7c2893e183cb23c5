#!/usr/bin/env python3
"""Build and run the riskan end-to-end benchmark.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which builds the riskan library from the
repository's own CMakeLists) under .bench_build/perfbench, then runs the
benchmark binary. Build output goes to .bench_build/perfbench/build.log; the
last line of standard output is the binary's JSON result. Exits non-zero
without a result when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_DIR = os.path.join(BUILD_ROOT, "build")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
LOG = os.path.join(BUILD_ROOT, "build.log")
WORKLOADS = ("book_rollup", "quote_stream")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(LOG) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR,
           "--reference", os.path.join(HERE, "reference_digests.txt")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

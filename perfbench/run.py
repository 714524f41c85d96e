#!/usr/bin/env python3
"""Builds the datastage benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test     # the benchmark's own tests

The build goes to .bench_build/ in the checkout (configured once, then
rebuilt incrementally). Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = str(min(4, os.cpu_count() or 1))


def build(target):
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS, "--target", target],
                   stdout=sys.stderr, check=True)


def main(argv):
    try:
        if argv == ["--test"]:
            build("perfbench_tests")
            return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
        build("perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

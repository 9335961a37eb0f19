#!/usr/bin/env python3
"""Builds and runs the KAR end-to-end benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kard-serve --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and through it the repository's src/) into .bench_build/
with CMake, then runs one workload. The build's output goes to standard
error; the benchmark's lines go to standard output, the last of them one
JSON object with the run's correctness, attempted/failed counts and
metrics. Exits non-zero when the build fails or a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "kar_perfbench")
WORKLOADS = ("kard-serve", "kard-churn", "sim-failover")


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            return False
    jobs = str(os.cpu_count() or 1)
    built = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "kar_perfbench",
         "-j", jobs],
        cwd=ROOT, stdout=sys.stderr)
    return built.returncode == 0 and os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke check only")
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

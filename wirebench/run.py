#!/usr/bin/env python3
"""Builds and runs the wire-level benchmark.

    python3 wirebench/run.py --workload atsq_mem --seed 1 --seconds 50 --trace 0
    python3 wirebench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (wirebench/CMakeLists.txt compiles the gat library from src/)
into .bench_build/wirebench, or into $CARGO_TARGET_DIR/wirebench when that
is set; later calls only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. Exits
non-zero when the build fails, a run fails or an answer is wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "wirebench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"wirebench: build failed: {err}", file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "wirebench_test")]).returncode

    command = [os.path.join(build_dir, "wire_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(root, "wirebench-out")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("wirebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

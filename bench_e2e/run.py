#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench_e2e/run.py --workload paper-1t --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The CMake build goes to
$CARGO_TARGET_DIR/cmake (default .bench_build/cmake) and the run's files
(node log, Chrome trace, temporary checkpoint trees) to .../run. Build
output goes to stderr, so the last line on stdout is bench_e2e's JSON
result. The exit code is bench_e2e's: nonzero when the build fails or any
output check fails.
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(target, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", source, "-B", build,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build, "--target", "bench_e2e",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("bench_e2e: build failed", file=sys.stderr)
            return 1
    # Write back the build's output now: otherwise its writeback runs during
    # the first measurement and delays the journal's fdatasyncs.
    os.sync()

    return subprocess.run([
        os.path.join(build, "bench_e2e"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--run_dir=" + os.path.join(target, "run"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())

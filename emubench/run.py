#!/usr/bin/env python3
"""Builds the emulator benchmark from source and runs one workload.

Run from the root of the repository:

    python3 emubench/run.py --workload fig10-eft --seed 7 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
working directory; the first run configures and compiles, later runs only
check that the build is up to date. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the build fails or the benchmark does not finish in time.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig10-eft", "fig11-grid", "validation-kernels", "fig11-proc-journal"]
# A run must end within 180 s; leave room for the up-to-date check.
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 700


def run_checked(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def build(build_dir):
    """Configures (once) and builds the emubench target; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_checked(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            return None
    code = run_checked(["cmake", "--build", build_dir, "--target", "emubench",
                        "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0:
        return None
    return os.path.join(build_dir, "emubench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(target, "emubench"))
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(target, "emubench-scratch"),
           "--expected", os.path.join(HERE, "expected_digests.txt")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: benchmark timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())

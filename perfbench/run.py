#!/usr/bin/env python3
"""Builds and runs the perfbench binary for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve|ingest|build --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

The first call configures and builds perfbench/ (which pulls in the
repository's libraries) into .bench_build/; later calls only re-check the
build. Durable, spill and artifact state goes to .bench_state/ in the
checkout and is removed when the run ends. The binary's report goes to
stdout; its last line is the JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
STATE_DIR = ".bench_state"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configures (once) and builds the binary; returns the binary path."""
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a full checkout")
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 1)
    return os.path.join(build_dir, "perfbench")


def git_sha(root):
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def parse_result(stdout):
    """The last stdout line as the contract's result object, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["serve", "ingest", "build"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 64)

    root = os.getcwd()
    binary = build(root)
    state_dir = os.path.join(root, STATE_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(state_dir, ignore_errors=True)
    os.makedirs(state_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scale", args.scale,
               "--state-dir", state_dir, "--git-sha", git_sha(root)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, STATE_DIR))
        except OSError:
            pass
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited with code {done.returncode}", 1)
    if parse_result(done.stdout) is None:
        sys.stderr.write(done.stdout)
        fail("perfbench printed no result line", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sr-uniform-read --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/) as a
Release CMake build of perfbench/CMakeLists.txt, which compiles the library
sources in src/. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it stamps the
machine and build. A copy of both, and the spans of a traced run, are kept
under <build dir>/runs/. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sr-uniform-read", "tiered-real-read", "sr-real-mixed")
# A first run (clean build plus run) must end within 900 s, later runs
# within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group, which is killed on timeout so no
    compiler or benchmark process outlives this script."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found; "
                 "run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(build_dir)
    except subprocess.TimeoutExpired as e:
        sys.exit(f"perfbench: build failed: {e}")

    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(build_dir, "srbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(runs_dir, tag + ".spans.jsonl")]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if code != 0 and not lines:
        sys.exit(f"perfbench: srbench exited with {code}")
    result = json.loads(lines[-1])
    with open(os.path.join(runs_dir, tag + ".json"), "w") as f:
        f.write("\n".join(lines[-2:]) + "\n")
    for line in lines:
        print(line)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

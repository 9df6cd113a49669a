#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cold_paper --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Configures and builds perfbench/ (whose
CMakeLists.txt builds the predictor library from src/) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
perfbench binary. Its last line of standard output is the result JSON;
build output goes to standard error. A traced run (--trace 1) also writes
its spans to <build dir>/traces/<workload>-seed<seed>.jsonl.
--selftest builds and runs the tests of the benchmark's own helpers.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

# The benchmark must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 175
WORKLOADS = ("cold_paper", "warm_whatif", "churn_stream")


def run(cmd, timeout=None, stdout=None):
    """Runs cmd to completion; the child never outlives this call."""
    child = subprocess.Popen(cmd, stdout=stdout)
    try:
        return child.wait(timeout=timeout)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def build(root, build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if run(configure, stdout=sys.stderr) != 0:
                # Leave no half-configured tree for the next run to trust.
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr) == 0


def main():
    # Turn a termination request into an exception, so run() still stops
    # and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.selftest:
        return run([os.path.join(build_dir, "perfbench_test")])

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

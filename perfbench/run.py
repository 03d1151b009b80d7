#!/usr/bin/env python3
"""Builds and runs the perfbench program from the repository root.

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 --trace 0

The program and the mrsl library it links are built with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the repository root; a
run's snapshots and WAL files live in a scratch directory inside it.
The last line of standard output is the run's JSON result. With --all,
every workload in BENCHMARK.json runs in turn and the exit code is the
first non-zero one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the program; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out_dir, "--target", "perfbench",
                "-j", jobs]
    for attempt in range(2):
        ok = True
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            ok = subprocess.run(configure, stdout=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode == 0
        ok = ok and subprocess.run(compile_, stdout=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S).returncode == 0
        if ok:
            return os.path.join(out_dir, "perfbench")
        if attempt == 0:  # a stale cache from another source tree
            shutil.rmtree(out_dir, ignore_errors=True)
    fail("build failed")


def run_one(binary, out_dir, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(out_dir, "run-" + workload)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if bool(args.all) == bool(args.workload):
        fail("give exactly one of --workload NAME or --all")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    # --all runs the gated set; --workload also takes query_hot (see
    # README.md), and the program rejects unknown names.
    workloads = names if args.all else [args.workload]

    started = time.time()
    out_dir = build_dir()
    binary = build(out_dir)
    print("perfbench: build ready in %.1f s" % (time.time() - started),
          file=sys.stderr)
    status = 0
    for workload in workloads:
        code = run_one(binary, out_dir, args, workload)
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()

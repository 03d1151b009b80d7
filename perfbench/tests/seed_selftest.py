#!/usr/bin/env python3
"""Seed self-test for the perfbench input generators.

For every workload, the same seed must give a byte-identical generated
input stream (data, plans, request order, inserts, recovery log) and a
different seed a different one. Builds the program like run.py does.

    python3 perfbench/tests/seed_selftest.py
"""

import hashlib
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("query_hot", "query_cold", "write_mix", "derive")


def dump(binary, workload, seed):
    out = subprocess.run(
        [binary, "--dump-inputs", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, check=True, timeout=120).stdout
    if not out:
        raise SystemExit("empty input dump for %s seed %d" % (workload, seed))
    return hashlib.sha256(out).hexdigest()


def main():
    binary = run.build(run.build_dir())
    failures = 0
    for workload in WORKLOADS:
        first = dump(binary, workload, 7)
        again = dump(binary, workload, 7)
        other = dump(binary, workload, 8)
        same_ok = first == again
        diff_ok = first != other
        print("%-10s same seed identical: %s, other seed differs: %s" %
              (workload, "PASS" if same_ok else "FAIL",
               "PASS" if diff_ok else "FAIL"))
        failures += (not same_ok) + (not diff_ok)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

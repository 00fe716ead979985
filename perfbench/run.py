#!/usr/bin/env python3
"""Build and run the Ring end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the repository's src/ tree)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
runs the benchmark's self-tests, then runs one measurement. The last line of
stdout is the run's JSON result; build and self-test output go to stderr.
Traced runs (--trace 1) write their span log under .bench_out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs cmd with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
        return None
    if run_quiet(["cmake", "--build", out, "--target", "ring_perfbench",
                  "-j", jobs]) != 0:
        return None
    return os.path.join(out, "ring_perfbench")


def main():
    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if run_quiet([binary, "--selftest"]) != 0:
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

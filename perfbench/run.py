#!/usr/bin/env python3
"""Build and run the APEX repository benchmark.

    python3 perfbench/run.py --workload analyzed-cold --seed 1 \
        --seconds 12 --trace 0

Run from the repository root.  Configures and builds perfbench/ (which
compiles the libraries from src/) into $CARGO_TARGET_DIR or
.bench_build, runs the harness self-tests, then runs the driver.  Build
and test output goes to stderr; the driver's stdout ends with the JSON
result line.  Exits non-zero when the build, the self-tests or any
measured operation fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("analyzed-cold", "daemon-mixed")


def run_quiet(cmd):
    """Run a build or test step with its output on stderr."""
    rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        sys.stderr.write("perfbench: %s failed (%d)\n" % (cmd[0], rc))
        sys.exit(rc if rc > 0 else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_root = os.path.relpath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", build, "-j", "4", "--target",
               "apex_perfbench", "perfbench_selftest"])
    run_quiet([os.path.join(build, "perfbench_selftest"),
               "--gtest_brief=1"])

    sys.stdout.flush()
    rc = subprocess.call([
        os.path.join(build, "apex_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference"),
        "--tmpdir", os.path.join(build_root, "tmp"),
    ])
    sys.exit(rc)


if __name__ == "__main__":
    main()

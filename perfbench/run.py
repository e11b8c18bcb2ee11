#!/usr/bin/env python3
"""Builds the dsf program and the perfbench harness from source (Release),
then runs one workload and passes its output and exit status through.

    python3 perfbench/run.py --workload cold-dist --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test     # the harness's own unit tests

Run from the repository root. The build tree is $CARGO_TARGET_DIR if set,
else .bench_build; see perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, targets):
    """Configures and builds `targets`; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["cold-dist", "hot-mix", "churn-revise"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.self_test:
        build(build_dir, ["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode)

    build(build_dir, ["dsf_cli", "perfbench"])
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--dsf", os.path.join(build_dir, "dsf"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

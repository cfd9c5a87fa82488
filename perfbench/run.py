#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload mixed_dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the sfc library from the
checkout's sources plus sfc_perfbench) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only run the
incremental build.  Build output goes to stderr, so the last line of stdout
is the JSON result of sfc_perfbench.  Exits non-zero, without a result, when
the build fails (for example outside a full checkout) or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("mixed_dense", "range_sparse", "refresh", "stretch_report")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the benchmark package."""
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind: the next call reconfigures.
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the arithmetic tests, then exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_root, "perfbench")
    build(root, build_dir)

    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode)

    out_dir = os.path.join(build_dir, "out")
    command = [os.path.join(build_dir, "sfc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"sfc_perfbench exceeded {RUN_TIMEOUT_S} s")  # run() killed and reaped it
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 anchorbench/run.py --workload warm_rpc --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark and the libanchor libraries it links into
$CARGO_TARGET_DIR/anchorbench (default .bench_build/anchorbench); later
runs rebuild incrementally. The last line on stdout is the result JSON.

    python3 anchorbench/run.py --self-test

checks that the verdict oracle is not vacuous: a run with one deliberately
corrupted expectation must fail.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def log(msg):
    print(f"anchorbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no libanchor sources under {os.path.join(ROOT, 'src')}")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(os.cpu_count() or 2)
    cmd = ["cmake", "--build", build_dir, "--target", "anchorbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "anchorbench")


def commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["warm_rpc", "cold_batch", "feed_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "anchorbench")
    binary = build(build_dir)
    if binary is None:
        return 2
    work_dir = os.path.join(build_dir, "work")
    base = [binary, "--work-dir", work_dir, "--commit", commit()]

    if args.self_test:
        cmd = base + ["--workload", "warm_rpc", "--seed", "1", "--seconds", "1",
                      "--trace", "0", "--corrupt-oracle"]
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        if code == 0:
            log("self-test FAILED: a corrupted oracle expectation went unnoticed")
            return 1
        log(f"self-test ok: the corrupted expectation failed the run (exit {code})")
        return 0

    cmd = base + ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|tiny]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; the first call configures and compiles, later
calls only re-check it. Temporary files of the build and the run go to
tmp/ under that directory, so nothing is written outside the checkout.
Build output goes to stderr, so the program's stdout, whose last line is
the JSON result, passes through unchanged. Exits non-zero without a result
when the sources or the build are missing or broken.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout, env):
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build step failed: {e}")


def build():
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"missing {need}: run from a full checkout of the repository")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    tmp = os.path.join(target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env)
    run_step(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
             BUILD_TIMEOUT_S, env)
    return os.path.join(build_dir, "perfbench"), os.path.join(target, "run"), env


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = p.parse_args()
    binary, scratch, env = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--scratch-dir", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

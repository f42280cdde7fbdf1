#!/usr/bin/env python3
"""Build and run the hdem wall-clock benchmark.

    python3 perfbench/run.py --workload <dense3d|hot2d> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
benchmark, and the library it measures, into .bench_build/; later runs
reuse that build.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero, printing no
result, when the build fails.
"""
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                        "--target", "perfbench"],
                       check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    binary = os.path.join(BUILD, "perfbench")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

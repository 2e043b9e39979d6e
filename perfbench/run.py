#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold_catalog --seed 1 --seconds 20 --trace 0

The driver (perfbench/main.ml) is built with dune into .bench_build in
the release profile, so warnings elsewhere in the tree cannot stop it,
and with the shared dune cache off, so the build reads and writes only
inside the checkout. Build output goes to stderr. The driver's stdout
is passed through; its last line is the JSON result. The exit code is
the driver's, or 1 when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGET = "./perfbench/main.exe"
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", TARGET,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    try:
        done = subprocess.run([exe] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

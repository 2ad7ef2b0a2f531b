#!/usr/bin/env python3
"""Build and run the mhla repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seconds S]
    python3 perfbench/run.py --write-expected

The benchmark is the OCaml program perfbench/main.exe, built here from
the checkout's sources with dune into .bench_build/. Build output goes
to standard error, so the program's last line of standard output, one
JSON object, is the run's result. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGET = "./perfbench/main.exe"


def main():
    missing = [p for p in ("dune-project", "lib") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not an mhla source tree (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep every
    # build artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the damperf benchmark from this checkout's sources and runs it.

Usage (from the root of the checkout):

    python3 damperf/run.py --workload steady-churn --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/damperf (default .bench_build/damperf),
relative to the checkout root; build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits 2 without a result when the
library sources or the build tools are missing.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"damperf: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "workload" / "driver.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "damperf"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = [cmake, "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run([cmake, "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "damperf"


def main():
    binary = build()
    # The trace directory sits beside the build so the checkout's tracked
    # files are never touched.
    args = [str(binary), *sys.argv[1:], "--trace-dir",
            str(binary.parent / "traces")]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()

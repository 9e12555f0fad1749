#!/usr/bin/env python3
"""Builds rloopbench from this checkout's sources and runs one workload.

    python3 rloopbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds a
Release tree in .bench_build/ (the library from src/ plus the rloopbench
binary); later calls rebuild only what changed. Build output goes to
stderr, so the binary's final stdout line is its JSON result. All
arguments are passed through to the binary (see rloopbench/main.cc).
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "rloopbench"


def build() -> None:
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "rloopbench", "-j", "4"], check=True, stdout=sys.stderr)


def main() -> int:
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"rloopbench: build failed: {err}", file=sys.stderr)
        return 2
    args = [str(BINARY), *sys.argv[1:], "--workdir",
            str(BUILD_DIR / "work")]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the SPI benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload packed_small --seed 7 --seconds 10 --trace 0

Builds perfbench/ (and the library sources under src/) into
.bench_build/perfbench with CMake, prints a stamp line describing the
build and the machine, then runs one measurement. The last line of standard
output is the run's JSON result. Exits non-zero when the sources are
missing, the build fails, or any output of the program was wrong.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "spi_perfbench"
WORKLOADS = ("packed_small", "single_async", "packed_large", "travel_sim")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no SPI sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "spi_perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def source_digest():
    """SHA-256 over src/ and perfbench/, for checkouts that are not git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
            done = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            return done.stdout.splitlines()[0] if done.stdout else path
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    if args.trace == "1":
        trace_out.parent.mkdir(exist_ok=True)
    stamp = {
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": "Release",
        "compiler": compiler(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }
    print("stamp", json.dumps(stamp), flush=True)

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", str(trace_out)]
    # The program takes every parameter from the command line; keep the
    # library's own SPI_* overrides out of its environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPI_")}
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

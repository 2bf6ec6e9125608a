#!/usr/bin/env python3
"""End-to-end serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the serving stack and the `perfbench`
binary from the sources in this checkout (CMake, Release) into
.bench_build/perfbench, builds the pretrained-backbone cache once into
.bench_build/work (so no timed set-up includes a cold pretrain), then runs
the binary. The binary's last stdout line is the JSON result.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "work")
BINARY = os.path.join(BUILD, "perfbench")
HERE = os.path.dirname(os.path.relpath(os.path.abspath(__file__), ROOT))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "w") as f:
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
    return rc


def build():
    if not os.path.isfile(os.path.join("src", "serve", "session_manager.h")):
        fail("repository sources (src/) not found; run from the repo root")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", BUILD, "-j", jobs], log) != 0:
        fail("build failed")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    prepared = os.path.join(WORK, "prepared")
    if not os.path.isfile(prepared):
        if subprocess.call([BINARY, "--prepare", "--work-dir", WORK],
                           stdout=sys.stderr) != 0:
            fail("pretrain cache preparation failed")
        open(prepared, "w").close()
    rc = subprocess.call([BINARY, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", repr(args.seconds),
                          "--trace", str(args.trace), "--work-dir", WORK])
    sys.exit(rc)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload tlb_replay|hotspot_loop|fleet_open \
        --seed N --seconds S --trace 0|1 [extra perfbench flags]

Run from the root of a checkout.  Configures and builds perfbench/ (which
compiles the webwave library from src/) into .bench_build/perfbench, runs
the benchmark program, relays its log, and prints its one-line JSON result
last.  Exits non-zero without a result line when the sources are missing,
the build fails, the program crashes or overruns its time limit; exits 1
after the result line when a correctness check failed.
"""
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "serving_plane.h")):
        fail("no webwave sources under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def main():
    build()
    # The program gets its own process group so a timeout also takes down
    # any daemon it forked.
    proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    # A clean run has reaped its daemons already; after a crash or a
    # timeout, take down whatever is left of the group.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if out is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out[-4000:])
        fail("no result line (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Exactness self-test of the benchmark, at reduced shapes.

    python3 perfbench/selftest.py [--seed 7]

Run from the root of a checkout.  For every workload it runs the
benchmark (--small) twice untraced and twice traced on one seed and
requires the exact end-to-end metrics (hit_ratio, load_gain, ok_ratio)
and the per-layer counts to agree bit-for-bit; the in-process workloads,
and the fleet's oracle, must also agree at 1 and 2 worker threads.  A
second seed must change the request stream (hit_ratio or load_gain
moves), or the seed would not be reaching the inputs.  Exits 1 on any
mismatch or failed run.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["tlb_replay", "hotspot_loop", "fleet_open"]
EXACT_E2E = ["hit_ratio", "load_gain", "ok_ratio"]
# Per-layer metrics that are counts (or ratios of counts): pure functions
# of the seed, never of the clock.
EXACT_LAYER = [
    "store.evicted_cells", "store.spill_ratio", "serve.hops_per_req",
    "serve.failovers_per_req", "serve.epochs", "serve.snapshot_in_place",
    "serve.plane_in_place", "core.demand_events", "core.dirty_lanes",
    "fault.down_nodes", "netd.forwards_per_req", "netd.shed_forwards",
    "wire.bytes_per_req", "client.samples",
]


def run(workload, seed, trace, threads):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--threads", str(threads), "--small",
           "--setup-reps", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("FAILED: %s" % " ".join(cmd[1:]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def same(label, a, b, names):
    bad = [n for n in names if a[n] != b[n]]
    for n in bad:
        print("  MISMATCH %s %s: %r vs %r" % (label, n, a[n], b[n]))
    return not bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    ok = True
    for w in WORKLOADS:
        e2e = [run(w, args.seed, 0, 1), run(w, args.seed, 0, 1),
               run(w, args.seed, 0, 2)]
        layer = [run(w, args.seed, 1, 1), run(w, args.seed, 1, 1),
                 run(w, args.seed, 1, 2)]
        other = run(w, args.seed + 1, 0, 1)
        checks = [
            same("repeat", e2e[0], e2e[1], EXACT_E2E),
            same("threads", e2e[0], e2e[2], EXACT_E2E),
            same("traced repeat", layer[0], layer[1], EXACT_LAYER),
            same("traced threads", layer[0], layer[2], EXACT_LAYER),
        ]
        if other["hit_ratio"] == e2e[0]["hit_ratio"] and \
                other["load_gain"] == e2e[0]["load_gain"]:
            print("  seed %d and %d gave identical results" %
                  (args.seed, args.seed + 1))
            checks.append(False)
        print("%s: %s" % (w, "exact" if all(checks) else "NOT EXACT"))
        ok = ok and all(checks)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

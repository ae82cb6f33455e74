#!/usr/bin/env python3
"""Steadiness check: run each workload of BENCHMARK.json on seeds 1..runs
and report, per end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1 as a share of the median) beside the bound BENCHMARK.json
fixes.

    python3 perfbench/steadiness.py [--runs 10] [--logdir DIR]

Run from the root of a checkout.  Prints a markdown table; --logdir keeps
each run's full output.  Exits 1 when a run fails or a spread exceeds its
bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--logdir", help="keep each run's full output here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        raw[workload] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            if args.logdir:
                os.makedirs(args.logdir, exist_ok=True)
                with open(os.path.join(args.logdir, "%s-%d.log" % (
                        workload, seed)), "w") as f:
                    f.write(proc.stdout)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("FAILED: %s seed %d" % (workload, seed), file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                raw[workload][name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in raw[workload].items())),
                file=sys.stderr)

    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, metrics in raw.items():
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name]:
                flag = " **over**"
                ok = False
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f%s | %.3f |" % (
                workload, name, med, q1, q3, spread, flag, bounds[name]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

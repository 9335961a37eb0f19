#!/usr/bin/env python3
"""Smoke check of the KAR benchmark: every workload at a tiny size.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json untraced and traced with --smoke (a
few thousand routes, a short simulated horizon) and asserts that:
  * each run exits 0 and its last line is the result object with exactly
    the keys correct, attempted, failed and metrics, correct being true;
  * the untraced run prints every end_to_end metric and the traced run
    every per_layer metric of BENCHMARK.json, each with its unit;
  * sim-failover's outcome digest is the same in two runs of one seed.
Exits 1 on the first failed assertion.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, seed=1):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "2",
               "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("smoke: %s --trace %d exited %d:\n%s"
                 % (workload, trace, done.returncode, done.stdout))
    return lines


def check_result(workload, trace, lines, expected):
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("smoke: %s: unexpected result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        sys.exit("smoke: %s --trace %d: incorrect run: %s"
                 % (workload, trace, lines[-1]))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        sys.exit("smoke: %s --trace %d: metrics differ from BENCHMARK.json:\n"
                 "  missing %s\n  extra %s\n  unit mismatches %s"
                 % (workload, trace, sorted(set(want) - set(got)),
                    sorted(set(got) - set(want)),
                    sorted(n for n in got if n in want and got[n] != want[n])))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            check_result(workload, trace, run(workload, trace), expected)
            print("smoke: %s --trace %d ok" % (workload, trace))
    digests = []
    for _ in range(2):
        lines = run("sim-failover", 0, seed=7)
        digests += [l for l in lines if l.startswith("digest: ")]
    if len(digests) != 2 or digests[0].split(" (")[0] != digests[1].split(" (")[0]:
        sys.exit("smoke: sim-failover digest does not repeat: %s" % digests)
    print("smoke: sim-failover digest repeats: " + digests[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())

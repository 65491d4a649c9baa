#!/usr/bin/env python3
"""Check the virtual workloads against the committed perf trajectory.

Run from the repository root:

    python3 scripts/bench_check.py

Each BENCH_<workload>.json at the repository root lists one entry per
change that moved the benchmark, oldest first. For the latest entry this
script reruns its workload through perfbench/run.py at the entry's seed and
--seconds and compares every field under "exact" with the run: the
virtual-time metrics (the ones `perfbench --selftest` also treats as exact)
and, where recorded, the SimNetwork event hash. The figures depend on
libstdc++ (jitter draws go through std::uniform_int_distribution), like
determinism_test's goldens. Wall metrics, such as the "pairs" medians of
cpu_us_per_msg and setup_s, are recorded but never compared.

Every metric the run reports must be named in the file: under the latest
entry's "exact" metrics, or in the top-level "not_compared" list (wall
figures, and deterministic counters not yet in the exact set). A metric
perfbench starts to report fails the check until it is placed in one of
the two, so a new virtual-time metric is never left out of the exact set
without someone deciding so.

Exits 0 when every field matches and every reported metric is placed. On
a mismatch it prints the measured fields as JSON, ready to paste into a
new entry, and exits 1.
"""

import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(proc.stdout)
        sys.exit(f"bench_check: {workload} run failed (exit code {proc.returncode})")
    with open(os.path.join(ROOT, ".bench_build", "results",
                           f"{workload}-seed{seed}-trace0.json")) as f:
        result = json.load(f)
    hash_match = re.search(r"event hash (\d+)", proc.stdout)
    return result, hash_match.group(1) if hash_match else None


def check(path):
    with open(path) as f:
        bench = json.load(f)
    latest = bench["entries"][-1]
    seed, seconds = bench["exact_run"]["seed"], bench["exact_run"]["seconds"]
    result, event_hash = run(bench["workload"], seed, seconds)
    measured = {**result["e2e"], **result["layers"]}
    want = latest["exact"]
    got = {"event_hash": event_hash} if "event_hash" in want else {}
    got["metrics"] = {name: measured.get(name, {}).get("value") for name in want["metrics"]}
    mismatches = []
    if got.get("event_hash") != want.get("event_hash"):
        mismatches.append(f"event hash {want['event_hash']} -> {event_hash}")
    mismatches += [f"{name} {value} -> {got['metrics'][name]}"
                   for name, value in want["metrics"].items() if got["metrics"][name] != value]
    unplaced = sorted(set(measured) - set(want["metrics"]) - set(bench["not_compared"]))
    mismatches += [f"{name} is reported but neither in the exact metrics nor in not_compared"
                   for name in unplaced]
    label = f"{bench['workload']} seed {seed} --seconds {seconds}"
    if not mismatches:
        print(f"ok   {label}: {len(want['metrics'])} metrics"
              + (" and the event hash" if "event_hash" in want else "")
              + " match the latest entry")
        return True
    print(f"FAIL {label} differs from the latest entry:")
    for line in mismatches:
        print(f"  {line}")
    print("measured:\n" + json.dumps(got, indent=1))
    return False


def main():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not paths:
        sys.exit("bench_check: no BENCH_*.json at the repository root")
    results = [check(path) for path in paths]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()

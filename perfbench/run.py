#!/usr/bin/env python3
"""Build and run the end-to-end atomic-broadcast benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload abcast_wall --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark under
.bench_build/perfbench (later calls rebuild incrementally). The benchmark's
own output is passed through; the last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics named
in BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Every metric the run measured is also written to
.bench_build/results/<workload>-seed<seed>-trace<t>.json, and a traced run
writes its Chrome trace to .bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
WORKLOADS = ("abcast_wall", "fleet_virtual", "faults_virtual")
# Environment knobs of the library that would change what is measured.
SCRUBBED_ENV = ("SAMOA_DISPATCH", "SAMOA_WATCHDOG", "SAMOA_WATCHDOG_STUCK")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        ]
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(args, env):
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the determinism self-test instead of a workload")
    opts = parser.parse_args()
    if not opts.selftest and opts.workload is None:
        parser.error("--workload is required")

    build()
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    if opts.selftest:
        sys.exit(subprocess.run([BINARY, "--selftest"], env=env).returncode)

    names = metric_names(opts.trace)
    tag = f"{opts.workload}-seed{opts.seed}"
    os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    proc = run_binary([BINARY, "--workload", opts.workload, "--seed", str(opts.seed),
                       "--seconds", str(opts.seconds), "--trace", str(opts.trace),
                       "--trace-out", os.path.join(BUILD_ROOT, "traces", tag + ".json")], env)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"no result (exit code {proc.returncode})")
    with open(os.path.join(BUILD_ROOT, "results", f"{tag}-trace{opts.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)

    measured = {**result["e2e"], **result["layers"]}
    missing = [n for n in names if n not in measured]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: measured[n] for n in names},
    }))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()

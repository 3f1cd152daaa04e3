#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Run from the repository root:

  python3 perfbench/run.py --workload cold-reduce --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test

The library and the benchmark binary are built from source in Release mode
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Each run
prints its metrics by name with their units; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every answer was verified against the
enumeration oracle and every acknowledged write was recovered.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cold-reduce", "branch-sweep", "serve-mixed"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    build_dir = os.path.join(target_dir(), "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    work_dir = os.path.join(target_dir(), "perfbench-run", workload)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        print(f"{workload}: no result line", file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the harness's percentile and span "
                             "self-time arithmetic")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode

    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # Every workload in turn; the summary line names metrics workload.metric.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        code, result = run_one(binary, workload, args.seed, args.seconds,
                               args.trace)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            worst = worst or 1
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())

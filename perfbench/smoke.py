#!/usr/bin/env python3
"""Seconds-scale smoke run of the repository benchmark.

Runs every workload of BENCHMARK.json briefly, untraced and traced, through
the benchmark's own command, and checks that each run passes the
correctness gate and reports exactly the metric names and units that
BENCHMARK.json declares (end-to-end metrics untraced, per-layer metrics
traced), plus the per-type latency lines with their sample counts.

Run from the repository root:

    python3 perfbench/smoke.py [--seconds 4]
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(command, workload, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    done = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"exit code {done.returncode}\n{done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()


def check(lines, declared, trace):
    problems = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("the correctness gate failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if list(metrics) != [metric["name"] for metric in declared]:
        problems.append(f"metric names {list(metrics)}")
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} unit {got.get('unit')!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{metric['name']} is {value}, end-to-end metrics are never 0")
    if not any(line.startswith("record {") for line in lines):
        problems.append("no run record")
    latency = [line for line in lines if line.startswith("metric ") and "_p50_ms" in line]
    if not latency or not all(" ms" in line and "n=" in line for line in latency):
        problems.append("per-type latency lines lack units or sample counts")
    if trace and not any(line.startswith("recon ") for line in lines):
        problems.append("no reconciliation lines")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            try:
                problems = check(run(bench["command"], workload, args.seconds, trace), declared, trace)
            except (AssertionError, ValueError, IndexError, subprocess.TimeoutExpired) as error:
                problems = [str(error)]
            status = "ok" if not problems else "FAILED"
            print(f"{workload} trace={trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Correctness and counter gate over the repository benchmark.

Runs `perfbench/run.py --seed 7 --seconds 3 --trace 1` on each workload and
fails when a run reports correct == false, any failed operation, a packed-mode
fallback (core.fallback_count > 0), or a core.* counter that differs from the
baseline in scripts/perfbench_counters.json. The counters are per-round sums
of a deterministic grid, so they do not depend on machine speed or run length;
a change to any of them means the simulated cycles changed.

It also fails when sweep_fault_telemetry's telemetry.metrics_slowdown_x (the
per-cycle cost of the metrics-on points over the same points with metrics
off) exceeds MAX_METRICS_SLOWDOWN_X. A ratio of two timings on one machine, it
holds on slow and fast machines alike; the bound leaves room for noise above
the measured 1.2.

Usage, from the root of the repository:

    python3 scripts/perfbench_gate.py                    # check
    python3 scripts/perfbench_gate.py --write-baseline   # regenerate
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "perfbench_counters.json")
WORKLOADS = ("sweep_plain", "sweep_fault_telemetry")
MAX_METRICS_SLOWDOWN_X = 2.0


def run(workload):
    """Runs one traced benchmark round set; returns its JSON result."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "3",
           "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload}: perfbench exited {done.returncode}")
    return json.loads(lines[-1])


def counters(result):
    """The core.* count metrics of one result."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.startswith("core.") and m["unit"] == "count"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    results = {w: run(w) for w in WORKLOADS}
    if args.write_baseline:
        with open(BASELINE, "w") as f:
            json.dump({w: counters(r) for w, r in results.items()}, f,
                      indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {BASELINE}")
        return 0

    with open(BASELINE) as f:
        baseline = json.load(f)
    problems = []
    for workload, result in results.items():
        if result["correct"] is not True:
            problems.append(f"{workload}: correct is {result['correct']}")
        if result["failed"] > 0:
            problems.append(f"{workload}: {result['failed']} of "
                            f"{result['attempted']} operations failed")
        got = counters(result)
        if got.get("core.fallback_count", 0) > 0:
            problems.append(f"{workload}: core.fallback_count = "
                            f"{got['core.fallback_count']}")
        want = baseline.get(workload, {})
        for name in sorted(set(want) | set(got)):
            if got.get(name) != want.get(name):
                problems.append(f"{workload}: {name} = {got.get(name)}, "
                                f"baseline {want.get(name)}")
        if workload == "sweep_fault_telemetry":
            slowdown = result["metrics"].get("telemetry.metrics_slowdown_x")
            if slowdown is None:
                problems.append(f"{workload}: no telemetry.metrics_slowdown_x")
            elif slowdown["value"] > MAX_METRICS_SLOWDOWN_X:
                problems.append(f"{workload}: telemetry.metrics_slowdown_x = "
                                f"{slowdown['value']:.2f}, above "
                                f"{MAX_METRICS_SLOWDOWN_X}")
        print(f"{workload}: correct {result['correct']}, failed "
              f"{result['failed']}/{result['attempted']}, "
              f"{len(got)} core counters checked")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds and report, per end-to-end
metric, the median and the quartile spread (Q3 - Q1 over the median,
from ``statistics.quantiles(values, n=4)``) against the metric's bound.

    python3 perfbench/steadiness.py --workload session --seeds 1 2 3 4 5

Runs one after another from the repository root; raw results are
appended as JSON lines to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
from stats import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    worst = 0.0
    warmup_failures = 0
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            took = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            warmup_failures += sum(
                line.startswith("front-door warm-up attempt failed") for line in lines
            )
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps({"workload": workload, "seed": seed,
                                             "wall_s": took, **result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {took:.1f} s wall", flush=True)
        for name, unit, bound in spec.END_TO_END:
            series = values[name]
            spread = quartile_spread(series) if len(series) >= 2 else 0.0
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread < bound else "  > BOUND")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:8s} {name:20s} median {median(series):10.4f} {unit:4s} "
                  f"spread {spread:6.3f} bound {bound:.2f}{flag}", flush=True)
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    print(f"front-door warm-up attempts that failed: {warmup_failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

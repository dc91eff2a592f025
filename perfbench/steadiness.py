#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload train --seeds 1 2 3 4 5

The spread is the distance between the first and third quartile of the
values, as a share of their median (``statistics.quantiles(n=4)``); a
metric is steady when it stays below a third of its bound in
``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--log", help="append each run's provenance line "
                                      "to this file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        began = time.perf_counter()
        done = subprocess.run(
            [*bench["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(lines[-2] + "\n")
        print(f"seed {seed}: {time.perf_counter() - began:.1f}s "
              f"correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        if len(series) < 2 or not statistics.median(series):
            continue
        bound = bounds.get(name)
        note = f" bound={bound} third={bound / 3:.3f}" if bound else ""
        print(f"{name:28s} median={statistics.median(series):.5g} "
              f"spread={spread(series):.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness report: run one workload N times and compare spreads to bounds.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload profile-md --runs 10 [--first-seed 1]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...),
runs as a child process of ``perfbench/run.py`` for ``BENCHMARK.json``'s
``run_seconds`` with ``--trace 0``, and is waited for before the next
starts.  For every metric the report prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` beside the metric's bound from
``BENCHMARK.json``: ``steady`` below a third of the bound, ``ok``
within it, ``NOISY`` beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        config = json.load(stream)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {metric["name"]: metric.get("bound") for metric in config["end_to_end"]}
    values: dict = {}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        failures += result["failed"]
        shown = "  ".join(f"{name} {metric['value']:.4g}"
                          for name, metric in sorted(result["metrics"].items()))
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}: {shown}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}: {args.runs} runs, {failures} failed op run(s)")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, series in sorted(values.items()):
        median = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (series[0],) * 3)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("steady" if spread < bound / 3
                       else "ok" if spread <= bound else "NOISY")
        print(f"{name:32s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} "
              f"{bound if bound is not None else '':>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload deepwan-coupling --seeds 1-10

Runs perfbench/run.py once per seed (one at a time) and prints, for every
end-to-end metric, the median and the interquartile range of the values
as a share of the median, next to the bound BENCHMARK.json gives it. Use
it to check that a benchmark change keeps every spread within its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={metric['value']:.5g}"
                         for name, metric in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':22s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name, float("nan"))
        flag = "" if spread <= bound / 3 else (" over bound/3" if spread <= bound
                                               else " OVER BOUND")
        print(f"{name:22s} {median:12.6g} {spread:10.4f} {bound:6.2f}{flag}")


if __name__ == "__main__":
    main()

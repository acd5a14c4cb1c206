#!/usr/bin/env python3
"""Compares two sets of bench_e2e results against BENCHMARK.json's bounds.

    python3 bench_e2e/e2e_compare.py before.jsonl after.jsonl

Each file holds the JSON lines `bench_e2e --out=FILE` appends, one per
(workload, seed) run; a set is usually ten seeds per workload. For every
(workload, metric) found in both sets it prints the two medians, the
relative change, each set's spread (interquartile range over median) and
the bound. It exits 1 when any end-to-end metric got worse by more than its
bound, and 0 otherwise. Per-layer metrics have no bound and never fail.
"""
import argparse
import json
import os
import statistics
import sys


def load(path):
    """{workload: {metric: [values]}} from a results file."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            metrics = out.setdefault(record["workload"], {})
            for name, m in record["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main():
    default_spec = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--benchmark", default=default_spec)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(args.before), load(args.after)

    failures = 0
    print("%-13s %-32s %12s %12s %8s %7s %7s %6s  %s" % (
        "workload", "metric", "before", "after", "change", "sprd-a", "sprd-b",
        "bound", "verdict"))
    for workload in sorted(set(before) & set(after)):
        for name in sorted(set(before[workload]) & set(after[workload])):
            a = statistics.median(before[workload][name])
            b = statistics.median(after[workload][name])
            change = (b - a) / abs(a) if a else float("nan")
            better = directions.get(name, "lower")
            worse_by = change if better == "lower" else -change
            verdict = ""
            bound = ""
            if name in bounds:
                bound = "%.3f" % bounds[name]["bound"]
                if worse_by > bounds[name]["bound"]:
                    verdict = "WORSE"
                    failures += 1
                else:
                    verdict = "ok"
            print("%-13s %-32s %12.5g %12.5g %+7.1f%% %7.3f %7.3f %6s  %s" % (
                workload, name, a, b, 100 * change,
                spread(before[workload][name]), spread(after[workload][name]),
                bound, verdict))
    print("%d end-to-end metric(s) worse than their bound" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

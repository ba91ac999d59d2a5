#!/usr/bin/env python3
"""Compare two sets of ledger runs metric by metric.

    python3 bench/ledger/compare.py A/ B/

A/ and B/ each hold one file per run, named <workload>.<anything>.json,
whose last line is the JSON object run.py printed. For every workload and
metric the table gives each side's median and quartiles and the change
from A to B. An end-to-end metric is a "REGRESSION" when B's median is
worse than A's by more than the metric's bound in BENCHMARK.json, and
"unresolved" when either side's quartile spread (q3 - q1 over the median)
is wider than the bound, unless every run of B beats every run of A.
Per-layer metrics have no bound and are listed for reading only. Exits 1
when any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """{workload: [metrics dict, ...]} from every *.json file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] > 0:
            print(f"warning: {directory}/{name} reports a failed or incorrect run",
                  file=sys.stderr)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(name.split(".")[0], []).append(metrics)
    return runs


def summary(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(a, b, metric):
    bound = metric.get("bound")
    if bound is None:
        return "-", None
    lower = metric["better"] == "lower"
    a_med, _, _, a_spread = summary(a)
    b_med, _, _, b_spread = summary(b)
    worse = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    b_wins_all = max(b) < min(a) if lower else min(b) > max(a)
    if worse > bound:
        return "REGRESSION", worse
    if max(a_spread, b_spread) > bound and not b_wins_all:
        return "unresolved", worse
    return "ok", worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)

    regressed = False
    header = (f"{'workload':12s} {'metric':34s} {'A median [q1, q3] spread':>40s} "
              f"{'B median [q1, q3] spread':>40s} {'worse by':>9s}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        a_list, b_list = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a_list or not b_list:
            continue
        for name, metric in declared.items():
            a = [r[name] for r in a_list if name in r]
            b = [r[name] for r in b_list if name in r]
            if not a or not b:
                continue
            cells = []
            for values in (a, b):
                med, q1, q3, spread = summary(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {spread:6.1%} n={len(values)}")
            result, worse = verdict(a, b, metric)
            regressed |= result == "REGRESSION"
            worse_cell = f"{worse:+.1%}" if worse is not None else "-"
            print(f"{workload:12s} {name:34s} {cells[0]:>40s} {cells[1]:>40s} "
                  f"{worse_cell:>9s}  {result}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()

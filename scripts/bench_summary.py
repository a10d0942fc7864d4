#!/usr/bin/env python3
"""Summarise a BENCH_*.json written by scripts/bench_pairs.py.

    python3 scripts/bench_summary.py BENCH.json

For each workload, seed and end-to-end metric of BENCHMARK.json it prints
the parent and change medians, how many pairs the change won (strictly
better in the metric's ``better`` direction, pairing the i-th parent run
with the i-th change run) and the interquartile range of the parent's runs
(quartiles by linear interpolation, as numpy's default).  A gain is claimed
when the change wins at least 9 of 10 pairs and the medians differ by more
than that range.  Each group's header line also counts the failed ops of
each side.
"""
import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

ap = argparse.ArgumentParser()
ap.add_argument("runs", type=Path)
a = ap.parse_args()
better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
groups: dict[tuple[str, int], dict[str, list]] = {}
for run in sorted(json.loads(a.runs.read_text()), key=lambda r: r["order"]):
    sides = groups.setdefault((run["workload"], run["seed"]), {"parent": [], "change": []})
    sides[run["side"]].append(run["result"])

print("workload  seed      metric        better  parent_median  change_median  wins   parent_iqr")
for (workload, seed), sides in groups.items():
    parent, change = sides["parent"], sides["change"]
    failed = {side: sum(r["failed"] for r in runs) for side, runs in sides.items()}
    print(f"# {workload} seed {seed}: {min(len(parent), len(change))} pairs, "
          f"failed ops parent {failed['parent']}, change {failed['change']}")
    for metric, direction in better.items():
        p = [r["metrics"][metric]["value"] for r in parent]
        c = [r["metrics"][metric]["value"] for r in change]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for x, y in zip(p, c) if sign * (y - x) > 0)
        q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else (p[0],) * 3
        won = f"{wins}/{min(len(p), len(c))}"
        print(f"{workload:<9} {seed:<9} {metric:<13} {direction:<7} {statistics.median(p):<14.6g} "
              f"{statistics.median(c):<14.6g} {won:<6} {q3 - q1:.6g}")

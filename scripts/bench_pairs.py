#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and record every run.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload cli --pairs 10 \
        [--seed 20261017] [--seconds 25] --out BENCH.json

PARENT and CHANGE are git checkouts.  Pair i runs PARENT first when i is
even and CHANGE first when it is odd.  Each run appends one record to the
JSON list in --out: side, `git rev-parse HEAD`, workload, seed, seconds, its
place in the run order of the file, wall time and perfbench's final line.

Before any run it refuses, exiting 1, a checkout whose src/ holds untracked
or ignored files, such as __pycache__: perfbench's cli children would load
that bytecode on one side and compile every module on the other.
"""
import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ap = argparse.ArgumentParser()
ap.add_argument("parent")
ap.add_argument("change")
ap.add_argument("--workload", required=True)
ap.add_argument("--pairs", type=int, default=2)
ap.add_argument("--seed", type=int, default=20261017)
ap.add_argument("--seconds", type=float, default=25)
ap.add_argument("--out", type=Path, required=True)
a = ap.parse_args()
for root in (a.parent, a.change):
    extra = subprocess.run(["git", "status", "--porcelain", "--ignored", "src"], cwd=root,
                           capture_output=True, text=True, check=True).stdout
    if extra:
        sys.exit(f"{root}: src/ is not clean, remove these first:\n{extra}")
runs = json.loads(a.out.read_text()) if a.out.exists() else []
for i in range(2 * a.pairs):
    side = ("parent", "change")[(i + i // 2) % 2]
    root = getattr(a, side)
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True).stdout.strip()
    cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    t = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    runs.append({"side": side, "rev": rev, "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                 "order": len(runs) + 1, "wall_s": round(time.perf_counter() - t, 1),
                 "result": json.loads(out.splitlines()[-1])})
    a.out.write_text(json.dumps(runs, indent=1) + "\n")
    print(side, json.dumps(runs[-1]["result"]["metrics"]), flush=True)

#!/usr/bin/env python3
"""Print what importing the package costs: one JSON line {"module",
"compiled_bytes"} per module of src/pexpfan, the size of its marshalled code
object, then one line {"import", "vmhwm_mb", "runs"}: the median peak resident
set (VmHWM, Linux) of fresh processes that import pexpfan.cli with
PYTHONDONTWRITEBYTECODE=1 and an empty bytecode cache, so that every module is
compiled from source, as in every perfbench process.

    python3 scripts/import_cost.py [--runs 9]
"""
import argparse
import json
import marshal
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import pexpfan.cli; "
         "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))")

ap = argparse.ArgumentParser(description="Compiled module sizes and peak memory of importing the cli.")
ap.add_argument("--runs", type=int, default=9, help="fresh import processes (default 9)")
runs = ap.parse_args().runs
for path in sorted((SRC / "pexpfan").glob("*.py")):
    code = compile(path.read_text(), path.name, "exec")
    print(json.dumps({"module": path.name, "compiled_bytes": len(marshal.dumps(code))}), flush=True)
peaks = []
with tempfile.TemporaryDirectory() as cache:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, capture_output=True,
                             text=True, check=True).stdout
        peaks.append(int(out) / 1024)
print(json.dumps({"import": "pexpfan.cli", "vmhwm_mb": round(statistics.median(peaks), 3), "runs": runs}))

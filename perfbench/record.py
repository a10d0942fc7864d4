#!/usr/bin/env python3
"""Record expected.json: the values the benchmark checks results against.

    python3 perfbench/record.py

Records, from the code of the commit it runs on:
- localize: chi and the pairings of each line-bundle class (every checked
  result is an R(T)-combination of these);
- cli: the sha256 of the stdout of every command on data/;
- digests: per-op result digests of the first pass of every workload for
  the default and the held-out seed.
Every recorded result first passes the checks that do not depend on the
recording.  Re-recording changes what counts as a correct result, so it is a
change of the benchmark, never part of a change that claims a speed-up.
"""

from __future__ import annotations

import json
import sys

import oracle
import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads as W  # noqa: E402
from pexpfan import ktheory as K  # noqa: E402
from pexpfan.laurent import poly_to_json  # noqa: E402


def localize_base() -> dict:
    wl = W.Localize(run.ROOT, {"localize": None})
    wl.setup()
    out = {}
    for key, fan in wl.fans.items():
        res = wl.resolutions[key][0]
        out[key] = {
            "chi": [poly_to_json(K.chi(fan, c, resolution=res)) for c in wl.classes[key]],
            "pair": {
                W._tau_key(fan, tau): [poly_to_json(K.kronecker_pair(fan, c, tau, resolution=res))
                                       for c in wl.classes[key]]
                for tau in wl.taus[key]
            },
        }
    return out


def cli_data(expected: dict) -> dict:
    wl = W.Cli(run.ROOT, dict(expected, cli={}))
    wl.setup()
    try:
        out = {}
        for op in wl.pass_ops(run.DEFAULT_SEED, 0):
            if not op.kind.startswith("data:"):
                continue
            name = op.kind[len("data:"):]
            code, stdout = op.call()
            if code != 0:
                raise SystemExit(f"cli {name}: exit code {code}")
            out[name] = oracle.sha256(stdout)
        return out
    finally:
        wl.close()


def digests(expected: dict) -> dict:
    out = {}
    for name, cls in W.WORKLOADS.items():
        out[name] = {}
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            wl = cls(run.ROOT, expected)
            wl.setup()
            try:
                row = []
                for i, op in enumerate(wl.pass_ops(seed, 0)):
                    result = op.call()
                    error = op.check(result)
                    if error is not None:
                        raise SystemExit(f"{name} seed {seed} op {i}: {error}")
                    row.append(oracle.sha256(op.canon(result))[:16])
            finally:
                wl.close()
            out[name][str(seed)] = row
            print(f"recorded {name} seed {seed}: {len(row)} ops", flush=True)
    return out


def main() -> None:
    expected = {"localize": localize_base()}
    expected["cli"] = cli_data(expected)
    expected["digests"] = digests(expected)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""pexpfan benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload localize --seed 20261017 --seconds 25 --trace 0

Workloads: localize, resolve, cli (see workloads.py and predictions.json for
what each stresses and why).

``--trace 0`` measures the end-to-end metrics with no tracing.  Every time
it reports is scaled to a nominal host speed by a reference kernel run after
each operation and set-up (see reference.py); the unscaled figures are
printed beside them.  ``--trace 1`` runs half the passes, each operation
once untraced and once with spans around pexpfan's public functions, and
reports the per-layer metrics (unscaled) and the tracing overhead between
the two.  Every operation's result is checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The process exits non-zero, printing no result,
when the checkout lacks the package or its data.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import reference
import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20261017
HELD_OUT_SEED = 1301  # reserved for re-checking a claim on inputs not used while writing it
SETUP_REPEATS = 7  # at least this many set-ups, and more until they add up to SETUP_MIN_S
SETUP_MIN_S = 1.0
SETUP_MAX = 40
PROBES = 5
REQUIRED = (
    "src/pexpfan/__init__.py",
    "data/p112_fan.json",
    "data/p112_class.json",
    "data/p112_spanning.json",
    "data/p112_duality_cones.json",
    "tests/golden/p112_chi_demo_class.json",
    "tests/golden/p112_gram.json",
    "tests/golden/p112_dual_basis.json",
)
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "peak_rss_mb": "MB"}


class Phase:
    """Samples, failures and result digests of one closed loop."""

    def __init__(self):
        self.samples: list[tuple[str, float]] = []  # kind, seconds
        self.failures: list[str] = []
        self.canon: list[list[str]] = []  # per pass, per op

    @property
    def busy_s(self) -> float:
        return sum(s for _, s in self.samples)


def _timed(op, tracer=None):
    """Run one op, with its span when a tracer is given: (seconds, result, error)."""
    if tracer is not None:
        tracer.active = True
        span = tracer.begin("bench.op")
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an op that raises counts as failed
        result, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
        tracer.active = False
    return dt, result, error


def _record(phase: Phase, op, label: str, dt: float, result, error) -> str:
    phase.samples.append((op.kind, dt))
    canon = "failed"
    if error is None:
        try:
            error = op.check(result)
            canon = op.canon(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        phase.failures.append(f"{label}: {error}")
        canon = "failed"
    return canon


def _gauge(wl) -> float:
    return statistics.fmean(reference.sample() for _ in range(wl.ref_samples))


def run_loop(wl, seed: int, passes: int, first=None, tracer=None) -> tuple[list[Phase], list[float]]:
    """Run ``passes`` passes of the workload, timing each operation alone.

    ``first`` is pass 0 when it has already been generated.  Input
    generation and result checks stay outside the timed region.  With a
    tracer, every op runs twice, untraced and traced, in alternating order so
    that neither side always finds the caches warm; the two phases returned
    then differ only by tracing.  The reference kernel runs before the first
    operation and after each one; the factors returned, one per operation,
    scale its time by the kernel's mean time just before and just after it.
    """
    modes = (None,) if tracer is None else (None, tracer)
    phases = [Phase() for _ in modes]
    factors = []
    before = _gauge(wl)
    for p in range(passes):
        ops = first if p == 0 and first is not None else wl.pass_ops(seed, p)
        canon = [[] for _ in modes]
        for i, op in enumerate(ops):
            order = range(len(modes)) if i % 2 == 0 else reversed(range(len(modes)))
            for m in order:
                dt, result, error = _timed(op, modes[m])
                canon[m].append(_record(phases[m], op, f"pass {p} op {i} ({op.kind})", dt, result, error))
            after = _gauge(wl)
            factors.append(reference.factor([before, after]))
            before = after
        for phase, c in zip(phases, canon):
            phase.canon.append(c)
    return phases, factors


def digest_check(expected: dict, workload: str, seed: int, phase: Phase) -> tuple[str, int]:
    """Compare the first pass with the per-op digests recorded at the defining
    commit; returns a report line and the number of mismatching ops."""
    recorded = expected["digests"].get(workload, {}).get(str(seed))
    got = [oracle.sha256(c)[:16] for c in phase.canon[0]]
    if recorded is None:
        return f"digest: none recorded for seed {seed}; run digest {oracle.sha256(''.join(got))[:16]}", 0
    bad = sum(1 for a, b in zip(got, recorded) if a != b) + abs(len(got) - len(recorded))
    verdict = "matches" if bad == 0 else f"{bad} ops differ from"
    return f"digest: first pass {verdict} the recorded digest for seed {seed}", bad


def probe_ms(args: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def end_to_end(phase: Phase, factors: list[float], setups: list[tuple[float, float]], wl) -> tuple[dict, list[str]]:
    """The end-to-end metrics, with each time scaled by its reference factor;
    ``setups`` holds (seconds, factor) of every set-up."""
    ms = [s * f * 1000 for (_, s), f in zip(phase.samples, factors)]
    n = len(ms)
    raw_ms = [s * 1000 for _, s in phase.samples]
    setup_times = [s * f for s, f in setups]
    lines = [f"host speed: reference factor median {statistics.median(factors):.3f}, "
             f"{min(factors):.3f}-{max(factors):.3f} over {n} ops; "
             f"unscaled setup_s {statistics.median(s for s, _ in setups):.6g} s, ops_per_s {n / phase.busy_s:.6g} 1/s, "
             f"op_ms_p50 {statistics.median(raw_ms):.6g} ms"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / (sum(ms) / 1000),
        "op_ms_p50": statistics.median(ms),
    }
    t = stats.tail(ms)
    if t is None:
        metrics["op_ms_tail"] = max(ms)
        tail_note = f"max of only {n} samples"
    else:
        metrics["op_ms_tail"] = t[0]
        tail_note = f"p{t[1]:.1f}, {t[2]} samples beyond, n={t[3]}"
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"{n} ops / {sum(ms) / 1000:.3f} s busy",
        "op_ms_p50": f"n={n}",
        "op_ms_tail": tail_note,
        "peak_rss_mb": "children" if wl.name == "cli" else "this process",
    }
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]} ({notes[name]})")
    lines.append(f"metric failed_ratio = {len(phase.failures) / n:.6g} ({len(phase.failures)}/{n} ops)")
    for kind, name in wl.kind_metrics.items():
        vals = [m for (k, _), m in zip(phase.samples, ms) if k == kind]
        lines.append(f"metric {name} = {statistics.median(vals):.6g} ms (n={len(vals)})")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def module_self(layers: dict) -> dict[str, float]:
    """Self time of each package module: the sum over its traced functions."""
    return {m: sum(r["self_s"] for n, r in layers.items() if n.split(".")[0] == m) for m in spans.MODULES}


def per_layer(summary: dict, traced: Phase, untraced: Phase, probes: dict) -> tuple[dict, list[str]]:
    layers, counts = summary["layers"], summary["counts"]
    out: dict[str, tuple[float, str]] = {}
    for name in spans.LAYERS:
        row = layers.get(name, {"calls": 0, "self_s": 0.0})
        out[name + ".calls"] = (row["calls"], "count")
        out[name + ".self_s"] = (row["self_s"], "s")
    for module, total in module_self(layers).items():
        out[module + ".self_s"] = (total, "s")
    for name in ("laurent.divide_exact", "laurent.try_div"):
        calls = out[name + ".calls"][0]
        out[name + ".fail_ratio"] = (counts.get(name + ".fails", 0) / calls if calls else 0.0, "ratio")
    out["laurent.divide_exact.terms_out"] = (counts.get("laurent.divide_exact.terms_out", 0), "count")
    out["fan.Fan.build.validated_calls"] = (counts.get("fan.Fan.build.validated_calls", 0), "count")
    out["cli.import_ms"] = (probes["import"], "ms")
    out["cli.bare_ms"] = (probes["bare"], "ms")
    overhead = traced.busy_s / untraced.busy_s - 1
    out["trace.overhead_ratio"] = (overhead, "ratio")

    op_time = traced.busy_s
    lines = [f"tracing overhead: {100 * overhead:+.1f}% (traced {traced.busy_s:.3f} s vs untraced "
             f"{untraced.busy_s:.3f} s busy on the same {len(traced.samples)} ops)",
             "wait time: not applicable (one thread, no queues)"]
    shares = sorted(((out[m + ".self_s"][0], m) for m in spans.MODULES), reverse=True)
    lines.append("module self time: " + ", ".join(f"{m} {100 * s / op_time:.1f}%" for s, m in shares))
    outside = layers["bench.op"]["self_s"]
    lines.append(f"outside traced functions (for cli: interpreter start-up and import): "
                 f"{100 * outside / op_time:.1f}% of traced op time")
    ranked = sorted(((r["self_s"], n) for n, r in layers.items() if n != "bench.op"), reverse=True)
    for s, n in ranked:
        r = layers[n]
        lines.append(f"layer {n}: {r['calls']} calls, self {s:.4f} s ({100 * s / op_time:.1f}%), "
                     f"inclusive {r['total_s']:.4f} s ({100 * r['total_s'] / op_time:.1f}%)")
    for name, (value, unit) in out.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}, lines


def check_predictions(workload: str, summary: dict) -> list[str]:
    """Report whether the traced run agrees with predictions.json."""
    expect = json.loads((HERE / "predictions.json").read_text())[workload]["expect"]
    layers = summary["layers"]
    lines = []
    modules = module_self(layers)
    if "top_module" in expect:
        top = max(modules, key=modules.get)
        ok = top in expect["top_module"]
        lines.append(f"prediction top module in {expect['top_module']}: {'holds' if ok else 'fails'} ({top})")
    for name in expect.get("zero_calls", []):
        calls = layers.get(name, {"calls": 0})["calls"]
        lines.append(f"prediction {name} has no calls: {'holds' if calls == 0 else 'fails'} ({calls})")
    for name in expect.get("some_calls", []):
        calls = layers.get(name, {"calls": 0})["calls"]
        lines.append(f"prediction {name} is called: {'holds' if calls else 'fails'} ({calls})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("localize", "resolve", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the benchmark and its children, so that the reference
    # kernel gauges the CPU the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    expected = json.loads((HERE / "expected.json").read_text())
    cls = workloads.WORKLOADS[args.workload]

    # A run is a fixed number of passes, the number that takes --seconds at
    # the defining commit, so that every run and every commit measures the
    # same operations and the tail percentile keeps its rank.
    passes = max(1, round(args.seconds / cls.pass_seconds))
    setups = []  # (seconds, reference factor) of each set-up
    wl = None
    while len(setups) < SETUP_REPEATS or (sum(s for s, _ in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX):
        if wl is not None:
            wl.close()
        wl = cls(ROOT, expected)
        t0 = time.perf_counter()
        wl.setup()
        setups.append((time.perf_counter() - t0, reference.factor([reference.sample() for _ in range(3)])))
    first = wl.pass_ops(args.seed, 0)

    mode = "traced" if args.trace else "untraced"
    rss = "getrusage ru_maxrss of the " + ("child processes" if args.workload == "cli" else "benchmark process")
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} {mode}")
    print(f"# env nproc={os.cpu_count()} pinned to cpu {min(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} rss={rss}")
    print("# loop: closed, one client, no threads")
    try:
        if not args.trace:
            phases, factors = run_loop(wl, args.seed, passes, first=first)
            metrics, lines = end_to_end(phases[0], factors, setups, wl)
        else:
            # every op runs twice, so half the passes keep the run's length
            half = max(1, round(args.seconds / 2 / cls.pass_seconds))
            tracer = spans.Tracer()
            wl.tracer = tracer
            with tracer.installed():
                phases, _ = run_loop(wl, args.seed, half, first=first, tracer=tracer)
            untraced, traced = phases
            if traced.canon != untraced.canon:
                traced.failures.append("traced replay results differ from the untraced run")
            summary = tracer.summary()
            probes = {"import": probe_ms(["-c", "import pexpfan"]), "bare": probe_ms(["-c", "pass"])}
            metrics, lines = per_layer(summary, traced, untraced, probes)
            lines += check_predictions(args.workload, summary)
    finally:
        wl.close()

    digest_line, digest_bad = digest_check(expected, args.workload, args.seed, phases[0])
    lines.append(digest_line)
    attempted = sum(len(p.samples) for p in phases)
    failures = [f for p in phases for f in p.failures]
    failed = min(attempted, len(failures) + digest_bad)
    for line in lines:
        print(line)
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around pexpfan's public functions, installed from outside the package.

The traced run replaces each function in ``TRACED`` by a wrapper that records
a span (name, start, end, parent) while the tracer is active.  A module-level
function is rebound in every pexpfan module that imported it by name, so that
calls made through those bindings (``smith_normal_form`` inside ``fan`` and
``laurent``, ``chi`` inside ``cli``) are traced as well.  Nothing under the
package changes on disk; ``Tracer.installed()`` restores every binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# (module, attribute) of every traced function, in layer order.
TRACED = (
    ("lattice", "smith_normal_form"),
    ("laurent", "reduce_localization"),
    ("laurent", "divide_exact"),
    ("laurent", "try_div"),
    ("fan", "Fan.build"),
    ("fan", "Fan.is_complete"),
    ("fan", "resolve"),
    ("fan", "stellar_subdivision"),
    ("pexp", "gkm_validate"),
    ("pexp", "pullback"),
    ("ktheory", "chi"),
    ("ktheory", "kronecker_pair"),
    ("ktheory", "orbit_closure_class"),
    ("ktheory", "gram_matrix"),
    ("ktheory", "decompose"),
    ("ktheory", "dual_basis_solve"),
    ("ktheory", "poly_det"),
    ("cli", "run"),
)
LAYERS = tuple(f"{module}.{attr}" for module, attr in TRACED)
MODULES = ("lattice", "laurent", "fan", "pexp", "ktheory", "cli")


def _divide_exact_outcome(tracer, name, result, exc, args, kwargs):
    if exc is not None:
        if type(exc).__name__ == "NotDivisible":
            tracer.counts[name + ".fails"] += 1
    else:
        tracer.counts[name + ".terms_out"] += len(result.terms)


def _try_div_outcome(tracer, name, result, exc, args, kwargs):
    if exc is None and result is None:
        tracer.counts[name + ".fails"] += 1


def _build_outcome(tracer, name, result, exc, args, kwargs):
    validate = args[3] if len(args) > 3 else kwargs.get("validate", True)
    if validate:
        tracer.counts[name + ".validated_calls"] += 1


OUTCOMES = {
    "laurent.divide_exact": _divide_exact_outcome,
    "laurent.try_div": _try_div_outcome,
    "fan.Fan.build": _build_outcome,
}


def self_times(spans) -> dict[str, list]:
    """Per span name: [calls, inclusive seconds, self seconds].

    A span's self time is its duration minus the durations of its direct
    children.  Children of one span never overlap (one thread), so this is
    the span time not covered by any child span; a recursive call is a child
    like any other, so recursion is not counted twice.  Inclusive time adds
    up only the outermost span of each name, for the same reason.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for (name, start, end, parent), child in zip(spans, covered):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += end - start - child
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row[1] += end - start
    return out


class Tracer:
    """In-memory spans and outcome counts for the traced functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._absorbed: list[tuple[dict, str | None]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx)
                if outcome is not None:
                    outcome(tracer, name, None, exc, args, kwargs)
                raise
            tracer.end(idx)
            if outcome is not None:
                outcome(tracer, name, result, None, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pexpfan" or n.startswith("pexpfan."))]
        undo = []
        try:
            for module_name, attr in TRACED:
                home = sys.modules.get("pexpfan." + module_name)
                if home is None:
                    continue
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    undo.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                fn = getattr(home, attr)
                new = self.wrap(name, fn)
                for module in modules:
                    if getattr(module, attr, None) is fn:
                        undo.append((module, attr, fn))
                        setattr(module, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def absorb(self, summary: dict) -> None:
        """Add the summary of a traced child process that ran inside the
        innermost open span; its time counts as that span's children."""
        self._absorbed.append((summary, self.spans[self._stack[-1]][0] if self._stack else None))

    def summary(self) -> dict:
        """Calls, total and self time per traced function, plus the outcome
        counts."""
        layers = {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in self_times(self.spans).items()}
        counts = Counter(self.counts)
        for other, parent in self._absorbed:
            for name, row in other["layers"].items():
                mine = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in mine:
                    mine[key] += row[key]
                if parent is not None:
                    layers[parent]["self_s"] -= row["self_s"]
            counts.update(other["counts"])
        return {"layers": layers, "counts": dict(counts)}

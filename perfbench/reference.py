"""A fixed pure-Python kernel that gauges the host's current speed.

On a shared host the same operation can take a third longer for minutes at a
time while other tenants load the machine.  The benchmark runs this kernel
after every timed operation and set-up, and reports each time scaled by
``NOMINAL_S / kernel time`` of its pass: a time at the host speed where one
kernel sample takes ``NOMINAL_S``.  The kernel is the benchmark's own code
and calls nothing in pexpfan, so a change to the package cannot move it; it
mixes the work pexpfan does most (exponent-tuple dict arithmetic, sorting and
building containers) so that it slows with the host as pexpfan does.
"""

from __future__ import annotations

import random
import statistics
import time

import oracle

NOMINAL_S = 0.0135  # one sample's typical time on the 2-core host the benchmark was defined on

_rng = random.Random(5)
_POLY = {tuple(_rng.randint(-6, 6) for _ in range(3)): _rng.randint(1, 5) for _ in range(60)}
_DICTS = [{tuple(_rng.randint(-9, 9) for _ in range(3)): i for i in range(200)} for _ in range(50)]


def _kernel() -> int:
    size = 0
    for _ in range(3):
        acc: dict = {}
        for e, c in _POLY.items():
            oracle.add_scaled(acc, _POLY, c, e)
        size += len(acc)
    for d in _DICTS:
        size += len(sorted((v, k) for k, v in d.items()))
        size += len({k: v + 1 for k, v in d.items()})
    return size


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """The scale that turns times measured beside ``samples`` into nominal ones."""
    return NOMINAL_S / statistics.fmean(samples)

"""Order statistics used by the report."""

from __future__ import annotations

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int, int] | None:
    """The highest nearest-rank percentile with at least ``beyond`` samples
    above its rank: (value, percentile, samples beyond, sample count).

    With n sorted samples the value of rank r (1-based) is the 100*r/n
    percentile and n - r samples lie beyond it, so the highest such rank is
    n - beyond.  None when there are not more than ``beyond`` samples.
    """
    n = len(values)
    rank = n - beyond
    if rank < 1:
        return None
    ordered = sorted(values)
    return ordered[rank - 1], 100.0 * rank / n, n - rank, n

"""Summary statistics the benchmark reports.

Timings are reported as a median plus the highest percentile of a fixed
ladder that still has at least :data:`MIN_BEYOND` samples beyond it, so a
"p99" is never quoted from a sample too small to hold one.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be quoted at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples
    (rounded first, so 99.9% of 10,000 is rank 9,990, not 9,991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def supported_percentile(n: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it,
    or ``None`` when even the median is unsupported."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least ``p``%
    of the samples at or below it)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), p) - 1]


def median(values) -> float:
    return float(statistics.median(values))

"""Latency percentiles and run-to-run spreads."""

from __future__ import annotations

import math
import statistics

# a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def p90(samples):
    """Nearest-rank 90th percentile, or None when fewer than ten samples exceed it.

    With n samples the nearest rank is ceil(0.9 n), which leaves
    n - ceil(0.9 n) samples beyond it: ten or more from n = 100 on.
    """
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    if rank == 0 or len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def spread(values) -> dict:
    """Median, quartiles and the interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(median) if median else math.nan,
    }

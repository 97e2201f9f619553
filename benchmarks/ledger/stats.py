"""The two statistics the ledger reports: percentiles and quartile spread."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear interpolation between closest ranks (numpy's default).

    ``percentile(v, 0.25)`` of one value is that value; of none, an error.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median, the way the driver takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

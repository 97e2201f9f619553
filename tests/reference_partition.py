"""The row partition before it ran on ``(lo, hi)`` pairs — an ``Interval``
per item and a ``Row`` per band — kept here as the reference
``tests/test_partition_rows.py`` holds :func:`repro.partition.partition_rects`
to, membership for membership.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

from repro.geometry import Interval, Rect
from repro.partition import margin_for_rule
from repro.spatial.interval_merge import merge_intervals_pigeonhole


def partition_rects(rects: Sequence[Rect], rule_distance: int) -> Tuple[int, List[Tuple[Interval, List[int]]]]:
    """``(margin, [(row span, row members), ...])`` of the old procedure."""
    margin = margin_for_rule(rule_distance)
    spans: List[Interval] = []
    owners: List[int] = []
    for index, rect in enumerate(rects):
        if rect.is_empty:
            continue
        spans.append(Interval(rect.ylo - margin, rect.yhi + margin))
        owners.append(index)
    merged = merge_intervals_pigeonhole(spans)
    rows = [(span, []) for span in merged]
    starts = [span.lo for span in merged]
    for span, owner in zip(spans, owners):
        rows[bisect.bisect_right(starts, span.lo) - 1][1].append(owner)
    return margin, rows

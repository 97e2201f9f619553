"""Interval merging for adaptive layout partition (paper §IV-B, Algorithm 1).

The row partition reduces to merging the y-extents of all cell instances into
a disjoint cover. The paper solves it with a *pigeonhole array* in
``Θ(k + N)`` — ``k`` merges (one per cell), ``N`` domain values — arguing
that in real layouts ``k ≫ N`` (many cells, few distinct row coordinates)
and that a flat array has far better locality than sorting. The sort-based
``Ω(k log k)`` alternative the paper mentions is implemented alongside for
the ablation benchmark.

The pigeonhole array is indexed by *coordinate-compressed* endpoints
("discretization assumed" in the paper): ``A[i]`` holds the furthest right
endpoint of any interval starting at or before domain value ``i`` seen so
far, initialized to ``i`` itself; a single left-to-right scan then emits the
disjoint cover.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..geometry import Interval, Rect, coalesce


def merge_spans_pigeonhole(spans: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Algorithm 1: pigeonhole-array merging of ``(lo, hi)`` int pairs.

    Returns the disjoint, sorted cover of the input spans as pairs. Touching
    closed spans (``(0, 5)`` and ``(5, 9)``) merge; integer-adjacent ones
    (``(0, 5)`` and ``(6, 9)``) do not. Builds no object per span.
    """
    if not spans:
        return []

    # Discretize: the pigeonhole array is indexed by compressed endpoints.
    values = sorted({v for span in spans for v in span})
    index_of = {v: i for i, v in enumerate(values)}
    array = list(range(len(values)))  # step 1: A[i] = i

    # Step 2: one O(1) update per merge — A[l] <- max(A[l], r).
    for lo, hi in spans:
        lo_idx = index_of[lo]
        hi_idx = index_of[hi]
        if array[lo_idx] < hi_idx:
            array[lo_idx] = hi_idx

    # Step 3: scan A once, emitting a new span whenever the running end is
    # exceeded by the scan position.
    result: List[Tuple[int, int]] = []
    end = -1
    start = -1
    for i, reach in enumerate(array):
        if i > end:
            if end >= 0:
                result.append((values[start], values[end]))
            start = i
            end = i
        if reach > end:
            end = reach
    if end >= 0:
        result.append((values[start], values[end]))
    return result


def merge_intervals_pigeonhole(intervals: Sequence[Interval]) -> List[Interval]:
    """:func:`merge_spans_pigeonhole` over (and returning) :class:`Interval`\\ s."""
    return list(map(Interval._make, merge_spans_pigeonhole(intervals)))


def merge_intervals_sorted(intervals: Sequence[Interval]) -> List[Interval]:
    """Sort-based Ω(k log k) merging — the baseline the paper compares against."""
    return coalesce(map(Interval._make, intervals))


def coalesce_rects(rects: Sequence[Rect]) -> List[Rect]:
    """Exact disjoint-cover of a union of closed rects (multi-window plans).

    The incremental engine merges overlapping/touching dirty windows into a
    canonical region set before gathering. The cover is *exact*: a point
    lies in some output rect iff it lies in some input rect, so overlap
    tests against the cover equal overlap tests against the input union.

    Built on the same interval merging as the row partition: the y-extents
    slice the plane into slabs, the x-intervals of the rects spanning each
    slab merge via :func:`merge_intervals_pigeonhole`, and columns with one
    x-span coalesce vertically the same way.
    """
    live = [r for r in rects if not r.is_empty]
    if not live:
        return []
    flat = [r for r in live if r.ylo < r.yhi]
    # Degenerate (zero-height) rects span no slab; merge them per scanline.
    lines: Dict[int, List[Interval]] = {}
    for r in live:
        if r.ylo == r.yhi:
            lines.setdefault(r.ylo, []).append(Interval(r.xlo, r.xhi))

    cover: List[Rect] = []
    ys = sorted({y for r in flat for y in (r.ylo, r.yhi)})
    for ylo, yhi in zip(ys, ys[1:]):
        spans = [
            Interval(r.xlo, r.xhi) for r in flat if r.ylo <= ylo and r.yhi >= yhi
        ]
        for iv in merge_intervals_pigeonhole(spans):
            cover.append(Rect(iv.lo, ylo, iv.hi, yhi))
    for y, spans in lines.items():
        for iv in merge_intervals_pigeonhole(spans):
            cover.append(Rect(iv.lo, y, iv.hi, y))

    # Vertically coalesce stacked slab rects sharing one x-span (adjacent
    # slabs touch at their shared y, so the closed-interval merge glues them).
    columns: Dict[Tuple[int, int], List[Interval]] = {}
    for r in cover:
        columns.setdefault((r.xlo, r.xhi), []).append(Interval(r.ylo, r.yhi))
    merged: List[Rect] = []
    for (xlo, xhi), spans in columns.items():
        for iv in merge_intervals_pigeonhole(spans):
            merged.append(Rect(xlo, iv.lo, xhi, iv.hi))
    return sorted(merged)

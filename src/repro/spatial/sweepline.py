"""Sweepline MBR-overlap reporting (paper §IV-D, Fig. 3) as one sort-and-scan.

The boxes are sorted on their low side along one axis; each box then scans
forward through the sorted run while the next box starts at or before its
high side, and tests the other axis. This is the one-way scan of Zomorodian
and Edelsbrunner ("Fast software for box intersections", 2002): still a
sweepline, with the sorted run standing in for the paper's interval-tree
status. Overlap is *closed*: the engine inflates MBRs by the rule distance
first, so boundary contact must be reported. Boxes are plain
``(xlo, ylo, xhi, yhi)`` tuples (a ``Rect`` is one); an empty box
(``lo > hi`` on either axis) never pairs.

A box scans the boxes that start inside its span, about ``n · span / extent``
of them, so each call sweeps along the axis with the smaller
``Σ span / extent`` over everything it pairs (docs/algorithms.md §3).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterator, List, Sequence, Tuple

Box = Tuple[int, int, int, int]
#: A box keyed for the scan: ``(lo, hi, olo, ohi, index)``, where ``lo, hi``
#: is its span on the sweep axis and ``olo, ohi`` its span on the other.
_Keyed = Tuple[int, int, int, int, int]

_LO = itemgetter(0)


def iter_overlapping_pairs(rects: Sequence[Box]) -> Iterator[Tuple[int, int]]:
    """Yield index pairs ``(i, j)``, ``i < j``, of rects whose closed regions overlap.

    Empty rects never participate. Each pair is reported exactly once.
    """
    (boxes,) = _scan_order(rects)
    los = [box[0] for box in boxes]
    for k, (_, hi, olo, ohi, i) in enumerate(boxes, 1):
        for _, _, bolo, bohi, j in boxes[k : bisect_right(los, hi, k)]:
            if bolo <= ohi and olo <= bohi:
                yield (i, j) if i < j else (j, i)


def report_overlapping_pairs(rects: Sequence[Box]) -> List[Tuple[int, int]]:
    """Materialized :func:`iter_overlapping_pairs`."""
    return list(iter_overlapping_pairs(rects))


def iter_bipartite_overlaps(
    left: Sequence[Box], right: Sequence[Box]
) -> Iterator[Tuple[int, int]]:
    """Yield ``(i, j)`` with ``left[i]`` overlapping ``right[j]`` (closed), in
    no particular order; pairs within one side are never reported.

    Both sides are sorted on the same axis and merged with one cursor each:
    the box with the smaller ``lo`` (the left one on a tie) scans the other
    side from that side's cursor, then its own cursor moves on. A pair is
    reported by whichever of its two boxes comes first, so exactly once.
    """
    a, b = _scan_order(left, right)
    a_los = [box[0] for box in a]
    b_los = [box[0] for box in b]
    i = j = 0
    na, nb = len(a), len(b)
    # Each turn takes the whole run of one side that comes before the other
    # side's next box (left boxes up to and including its ``lo``, right ones
    # strictly before); a box of the run ending before that ``lo`` scans
    # nothing.
    while i < na and j < nb:
        if a_los[i] <= b_los[j]:
            next_lo = b_los[j]
            stop = bisect_right(a_los, next_lo, i)
            for _, hi, olo, ohi, p in a[i:stop]:
                if hi >= next_lo:
                    for _, _, bolo, bohi, q in b[j : bisect_right(b_los, hi, j)]:
                        if bolo <= ohi and olo <= bohi:
                            yield p, q
            i = stop
        else:
            next_lo = a_los[i]
            stop = bisect_left(b_los, next_lo, j)
            for _, hi, olo, ohi, q in b[j:stop]:
                if hi >= next_lo:
                    for _, _, aolo, aohi, p in a[i : bisect_right(a_los, hi, i)]:
                        if aolo <= ohi and olo <= aohi:
                            yield p, q
            j = stop


def _scan_order(*populations: Sequence[Box]) -> List[List[_Keyed]]:
    """Each population's non-empty boxes keyed for the scan and sorted on
    ``lo``, all on one sweep axis: the one with the smaller ``Σ span /
    extent`` over every population (ties sweep on x)."""
    keyed = [
        [
            (xlo, xhi, ylo, yhi, index)
            for index, (xlo, ylo, xhi, yhi) in enumerate(rects)
            if xlo <= xhi and ylo <= yhi
        ]
        for rects in populations
    ]
    x_span = y_span = 0
    x_ends: List[int] = []
    y_ends: List[int] = []
    for boxes in keyed:
        if boxes:
            xlo, xhi, ylo, yhi, _ = zip(*boxes)
            x_span += sum(xhi) - sum(xlo)
            y_span += sum(yhi) - sum(ylo)
            x_ends += (min(xlo), max(xhi))
            y_ends += (min(ylo), max(yhi))
    # x_span / x_extent > y_span / y_extent, multiplied out; the +1 keeps a
    # zero-extent axis from dividing by zero.
    if x_ends and x_span * (max(y_ends) - min(y_ends) + 1) > y_span * (
        max(x_ends) - min(x_ends) + 1
    ):
        keyed = [[(ylo, yhi, xlo, xhi, i) for xlo, xhi, ylo, yhi, i in boxes] for boxes in keyed]
    for boxes in keyed:
        boxes.sort(key=_LO)
    return keyed

"""Sweepline MBR-overlap reporting (paper §IV-D, Fig. 3).

A conceptual horizontal line moves top-to-bottom across the plane, visiting
the top and bottom sides of all MBRs in descending y. At a top side, the
rect's x-interval is queried against the interval-tree status (reporting all
currently-open overlapping MBRs) and then inserted; at a bottom side it is
removed. Overlap is *closed*: the engine inflates MBRs by the rule distance
first, so boundary contact must be reported.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..geometry import Rect
from .interval_tree import IntervalTree

_ENTER = 0  # top side — processed first at equal y so touching rects pair up
_EXIT = 1  # bottom side


def iter_overlapping_pairs(rects: Sequence[Rect]) -> Iterator[Tuple[int, int]]:
    """Yield index pairs ``(i, j)``, ``i < j``, of rects whose closed regions overlap.

    Empty rects never participate. Each pair is reported exactly once.
    """
    events = _build_events(rects)
    tree: IntervalTree[int] = IntervalTree([rects[index][0] for _, _, index in events] or [0])
    query, insert, remove = tree.query, tree.insert, tree.remove
    for _, kind, index in events:
        xlo, _, xhi, _ = rects[index]
        if kind == _ENTER:
            for other in query(xlo, xhi):
                yield (other, index) if other < index else (index, other)
            insert(xlo, xhi, index)
        else:
            remove(xlo, xhi, index)


def report_overlapping_pairs(rects: Sequence[Rect]) -> List[Tuple[int, int]]:
    """Materialized :func:`iter_overlapping_pairs`."""
    return list(iter_overlapping_pairs(rects))


def iter_bipartite_overlaps(
    left: Sequence[Rect], right: Sequence[Rect]
) -> Iterator[Tuple[int, int]]:
    """Yield ``(i, j)`` with ``left[i]`` overlapping ``right[j]`` (closed).

    One sweep over both populations; used for inter-layer checks (e.g. via
    enclosure candidates) where only cross pairs matter. Each side keeps its
    own status tree, so an entering rect queries only the other side's, and
    only the rects whose y-span meets the other side's ever enter one.
    """
    live = (_in_band(left, right), _in_band(right, left))
    events: List[Tuple[int, int, int, int]] = []  # (-y, kind, side, index)
    for side, rects in enumerate((left, right)):
        for index in live[side]:
            _, ylo, _, yhi = rects[index]
            events.append((-yhi, _ENTER, side, index))
            events.append((-ylo, _EXIT, side, index))
    events.sort()
    trees = (
        IntervalTree([left[index][0] for index in live[0]] or [0]),
        IntervalTree([right[index][0] for index in live[1]] or [0]),
    )
    for _, kind, side, index in events:
        if side == 0:
            xlo, _, xhi, _ = left[index]
            if kind == _ENTER:
                for other in trees[1].query(xlo, xhi):
                    yield index, other
                trees[0].insert(xlo, xhi, index)
            else:
                trees[0].remove(xlo, xhi, index)
        else:
            xlo, _, xhi, _ = right[index]
            if kind == _ENTER:
                for other in trees[0].query(xlo, xhi):
                    yield other, index
                trees[1].insert(xlo, xhi, index)
            else:
                trees[1].remove(xlo, xhi, index)


#: Rect pairs up to which the direct double loop beats building sweep events
#: and an interval tree.
_BRUTE_PAIRS = 256


def near_pairs(left: Sequence[Rect], right: Sequence[Rect]) -> Iterator[Tuple[int, int]]:
    """The pairs of :func:`iter_bipartite_overlaps`, in no particular order.

    The per-candidate callers (a via against one cell's metal, two gathered
    polygon sets) mostly pass a handful of rects, for which the direct loop
    wins; a level with thousands of items gets the sweep.
    """
    if len(left) * len(right) > _BRUTE_PAIRS:
        yield from iter_bipartite_overlaps(left, right)
        return
    boxes = [(j, box) for j, box in enumerate(right) if box[0] <= box[2] and box[1] <= box[3]]
    for i, (xlo, ylo, xhi, yhi) in enumerate(left):
        if xlo <= xhi and ylo <= yhi:
            for j, (bxlo, bylo, bxhi, byhi) in boxes:
                if bxlo <= xhi and xlo <= bxhi and bylo <= yhi and ylo <= byhi:
                    yield (i, j)


def brute_force_pairs(rects: Sequence[Rect]) -> List[Tuple[int, int]]:
    """Quadratic reference implementation used to validate the sweepline."""
    out: List[Tuple[int, int]] = []
    for i, a in enumerate(rects):
        for j in range(i + 1, len(rects)):
            if a.overlaps(rects[j]):
                out.append((i, j))
    return out


def sweep(
    rects: Sequence[Rect],
    on_pair: Callable[[int, int], None],
    *,
    prune: Optional[Callable[[int, int], bool]] = None,
) -> int:
    """Run the sweep calling ``on_pair`` per overlap; returns the pair count.

    ``prune(i, j) -> True`` suppresses a pair before the callback — this is
    where the engine plugs in the paper's §IV-C elimination conditions.
    """
    pairs = 0
    for i, j in iter_overlapping_pairs(rects):
        if prune is not None and prune(i, j):
            continue
        on_pair(i, j)
        pairs += 1
    return pairs


def _in_band(rects: Sequence[Rect], others: Sequence[Rect]) -> List[int]:
    """Indices of the non-empty ``rects`` whose y-span meets a non-empty one
    of ``others``: against the merged union of their y-spans, bisected."""
    band_lo: List[int] = []
    band_hi: List[int] = []
    for lo, hi in sorted((ylo, yhi) for xlo, ylo, xhi, yhi in others if xlo <= xhi and ylo <= yhi):
        if band_hi and lo <= band_hi[-1]:
            if hi > band_hi[-1]:
                band_hi[-1] = hi
        else:
            band_lo.append(lo)
            band_hi.append(hi)
    keep: List[int] = []
    for index, (xlo, ylo, xhi, yhi) in enumerate(rects):
        if xlo <= xhi and ylo <= yhi:
            # The last band starting at or below yhi reaches highest of those.
            k = bisect_right(band_lo, yhi) - 1
            if k >= 0 and band_hi[k] >= ylo:
                keep.append(index)
    return keep


def _build_events(rects: Sequence[Rect]) -> List[Tuple[int, int, int]]:
    events: List[Tuple[int, int, int]] = []
    for index, (xlo, ylo, xhi, yhi) in enumerate(rects):
        if xlo <= xhi and ylo <= yhi:
            # Sort key -y gives descending y; ENTER(0) < EXIT(1) keeps touching
            # rects (one's bottom at another's top) paired.
            events.append((-yhi, _ENTER, index))
            events.append((-ylo, _EXIT, index))
    events.sort()
    return events

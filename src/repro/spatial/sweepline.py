"""Sweepline MBR-overlap reporting (paper §IV-D, Fig. 3).

A conceptual horizontal line moves top-to-bottom across the plane, visiting
the top and bottom sides of all MBRs in descending y. At a top side, the
rect's x-interval is queried against the interval-tree status (reporting all
currently-open overlapping MBRs) and then inserted; at a bottom side it is
removed. Overlap is *closed*: the engine inflates MBRs by the rule distance
first, so boundary contact must be reported.
"""

from __future__ import annotations

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
    keys = [r.xlo for r in rects if not r.is_empty]
    tree: IntervalTree[int] = IntervalTree(keys or [0])
    for _, kind, index in events:
        rect = rects[index]
        if kind == _ENTER:
            for other in tree.query(rect.xlo, rect.xhi):
                yield (other, index) if other < index else (index, other)
            tree.insert(rect.xlo, rect.xhi, index)
        else:
            tree.remove(rect.xlo, rect.xhi, index)


def report_overlapping_pairs(rects: Sequence[Rect]) -> List[Tuple[int, int]]:
    """Materialized :func:`iter_overlapping_pairs`."""
    return list(iter_overlapping_pairs(rects))


def iter_bipartite_overlaps(
    left: Sequence[Rect], right: Sequence[Rect]
) -> Iterator[Tuple[int, int]]:
    """Yield ``(i, j)`` with ``left[i]`` overlapping ``right[j]`` (closed).

    One sweep over both populations; used for inter-layer checks (e.g. via
    enclosure candidates) where only cross pairs matter.
    """
    sides = [left, right]
    events: List[Tuple[int, int, int, int]] = []  # (-y, kind, side, index)
    for side, rects in enumerate(sides):
        for index, rect in enumerate(rects):
            if rect.is_empty:
                continue
            events.append((-rect.yhi, _ENTER, side, index))
            events.append((-rect.ylo, _EXIT, side, index))
    events.sort()
    keys = [r.xlo for rects in sides for r in rects if not r.is_empty]
    tree: IntervalTree[Tuple[int, int]] = IntervalTree(keys or [0])
    for _, kind, side, index in events:
        rect = sides[side][index]
        if kind == _ENTER:
            for other_side, other_index in tree.query(rect.xlo, rect.xhi):
                if other_side != side:
                    if side == 0:
                        yield (index, other_index)
                    else:
                        yield (other_index, index)
            tree.insert(rect.xlo, rect.xhi, (side, index))
        else:
            tree.remove(rect.xlo, rect.xhi, (side, index))


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
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if a.overlaps(b):
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


def _build_events(rects: Sequence[Rect]) -> List[Tuple[int, int, int]]:
    events: List[Tuple[int, int, int]] = []
    for index, rect in enumerate(rects):
        if rect.is_empty:
            continue
        # Sort key -y gives descending y; ENTER(0) < EXIT(1) keeps touching
        # rects (one's bottom at another's top) paired.
        events.append((-rect.yhi, _ENTER, index))
        events.append((-rect.ylo, _EXIT, index))
    events.sort()
    return events

"""Adaptive row-based layout partition (paper §IV-B).

Layouts produced by row-based placement split naturally into horizontal
bands: merge the y-extents of all top-level cell instances (inflated by a
safety margin derived from the rule distance) into disjoint intervals, and
each resulting *row* can be checked independently — objects in different
rows are provably farther apart than the rule distance, so cross-row checks
are pruned entirely and rows can be processed in parallel.

The partition reads a flat MBR table (:func:`mbr_table`: ``xlo, ylo, xhi,
yhi`` per item in one ``array('q')``) and keeps its rows flat too: the
members of every row back to back in one ``array('q')`` and where each row
ends in another. No object per item, no list per row until a reader asks
for :attr:`RowPartition.members`.
"""

from __future__ import annotations

import bisect
import dataclasses
from array import array
from itertools import chain
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..geometry import Interval
from ..spatial.interval_merge import merge_spans_pigeonhole, merge_intervals_sorted

Span = Tuple[int, int]


def mbr_table(rects: Iterable[Sequence[int]]) -> array:
    """The flat ``xlo, ylo, xhi, yhi, ...`` table :func:`partition_rects`
    reads, from ``(xlo, ylo, xhi, yhi)`` rects (``Rect`` or any 4-sequence)."""
    return array("q", list(chain.from_iterable(rects)))  # a list fills it faster


@dataclasses.dataclass
class Row:
    """One independent horizontal band of the layout."""

    index: int
    span: Interval  # inflated y-extent covered by this row
    members: List[int]  # indices into the partitioned item sequence

    def __len__(self) -> int:
        return len(self.members)


@dataclasses.dataclass
class RowPartition:
    """Result of partitioning: each row's span and members, plus the margin
    they were built with.

    ``order`` holds every row's member item indices back to back, each row's
    in item order, and ``ends[i]`` is where row ``i``'s stop in ``order``.
    """

    spans: List[Span]
    order: array
    ends: array
    margin: int

    def _bounds(self) -> Iterable[Tuple[int, int]]:
        return zip(chain((0,), self.ends), self.ends)

    @property
    def members(self) -> List[List[int]]:
        """Each row's item indices (lists built on each read)."""
        return [self.order[start:end].tolist() for start, end in self._bounds()]

    @property
    def rows(self) -> List[Row]:
        """The bands as :class:`Row` objects (built on each read)."""
        return [
            Row(index=i, span=Interval(*span), members=members)
            for i, (span, members) in enumerate(zip(self.spans, self.members))
        ]

    @property
    def num_rows(self) -> int:
        return len(self.spans)

    @property
    def largest_row(self) -> int:
        return max((end - start for start, end in self._bounds()), default=0)

    def row_of(self) -> Dict[int, int]:
        """Map item index -> row index."""
        return {m: index for index, members in enumerate(self.members) for m in members}

    def signature(self) -> tuple:
        """Stable, hashable identity of this partition.

        Two partitions over the same item sequence compare equal exactly
        when every item lands in the same row — the condition under which
        packed per-row device buffers may be reused across rules (the
        deck-scoped pack cache keys on this). The rows are compared as the
        bytes of the two flat tables, not as a tuple per row. The margin is
        included so partitions from different rule distances never collide.
        """
        return (self.margin, (self.order.tobytes(), self.ends.tobytes()))


def margin_for_rule(rule_distance: int) -> int:
    """Inflation margin guaranteeing cross-row independence.

    Each item's y-interval grows by this margin on both sides before merging.
    Two items in *different* merged rows then have an original gap of at
    least ``2 * margin + 1 > rule_distance``, so no pair across rows can be
    closer than the rule requires.
    """
    if rule_distance < 0:
        raise ValueError(f"rule distance must be non-negative, got {rule_distance}")
    return (rule_distance + 1) // 2


def partition_rects(
    mbrs: Sequence[int],
    rule_distance: int,
    *,
    merger: Callable[[Sequence[Span]], List[Span]] = merge_spans_pigeonhole,
) -> RowPartition:
    """Partition items, given by the flat MBR table ``mbrs`` (see
    :func:`mbr_table`), into independent rows.

    Empty rects are assigned to no row (they have no geometry to check).
    ``merger`` selects the span-merging backend — the pigeonhole array of
    Algorithm 1 by default, the sort-based baseline for the ablation.
    """
    margin = margin_for_rule(rule_distance)
    spans: List[Span] = []
    owners: List[int] = []
    columns = zip(mbrs[0::4], mbrs[1::4], mbrs[2::4], mbrs[3::4])
    for index, (xlo, ylo, xhi, yhi) in enumerate(columns):
        if xlo > xhi or ylo > yhi:
            continue
        spans.append((ylo - margin, yhi + margin))
        owners.append(index)

    merged = [tuple(span) for span in merger(spans)]
    members: List[List[int]] = [[] for _ in merged]

    # Each item lands in exactly one merged span (its inflated span is a
    # subset of one row by construction); binary-search the row starts.
    starts = [lo for lo, _ in merged]
    for (lo, _), owner in zip(spans, owners):
        members[bisect.bisect_right(starts, lo) - 1].append(owner)

    order = array("q", list(chain.from_iterable(members)))
    ends = array("q")
    end = 0
    for row in members:
        end += len(row)
        ends.append(end)
    return RowPartition(spans=merged, order=order, ends=ends, margin=margin)


def partition_sorted_baseline(mbrs: Sequence[int], rule_distance: int) -> RowPartition:
    """Row partition using the sort-based merger (ablation baseline)."""
    return partition_rects(mbrs, rule_distance, merger=merge_intervals_sorted)

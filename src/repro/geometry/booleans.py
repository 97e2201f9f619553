"""Rectilinear boolean/region operations.

Boolean mask operations are one of the classic algorithmic foundations of
DRC (paper §I, reference [3]), and region *normalization* — merging all
shapes of a layer into disjoint maximal regions — is the first step of
KLayout's generic DRC pipeline, which the KLayout-like baselines model.

The implementation decomposes every polygon into rectangles (vertical slab
decomposition), unions the rectangles strip-by-strip over the compressed
y-grid, and links strips with a union-find to count connected regions.
The result knows its exact area, region count, and strip intervals, and
supports point membership — enough for region algebra and for the
normalization cost model, without committing to a polygon-with-holes
representation.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, Iterable, List, Sequence, Tuple

from .interval import Interval, coalesce
from .polygon import Polygon
from .rect import Rect


def decompose_rectilinear(polygon: Polygon) -> List[Rect]:
    """Vertical slab decomposition of a rectilinear polygon into rects.

    Slices the polygon at every distinct vertex y; within each horizontal
    slab the polygon's cross-section is a set of x-intervals delimited by
    the vertical edges crossing the slab.
    """
    ys = sorted({p.y for p in polygon.vertices})
    rects: List[Rect] = []
    _, verticals = polygon.edge_rows()
    for ylo, yhi in zip(ys, ys[1:]):
        xs: List[Tuple[int, int]] = []  # (x, +1 left boundary / -1 right)
        for x, elo, ehi, sign in verticals:
            if elo <= ylo and yhi <= ehi:
                # Interior east (+1) means the region lies right of the edge.
                xs.append((x, sign))
        xs.sort()
        depth = 0
        start = 0
        for x, sign in xs:
            if depth == 0 and sign > 0:
                start = x
            depth += sign
            if depth == 0 and sign < 0:
                rects.append(Rect(start, ylo, x, yhi))
    return rects


@dataclasses.dataclass
class RegionUnion:
    """Union of rectangles: per-strip disjoint x-intervals plus region links."""

    ys: List[int]  # strip boundaries, len == strips + 1
    strips: List[List[Interval]]  # disjoint sorted x-intervals per strip
    region_count: int
    area: int

    def contains_point(self, x: int, y: int) -> bool:
        """True if (x, y) lies in the union (closed on strip boundaries)."""
        if not self.ys or y < self.ys[0] or y > self.ys[-1]:
            return False
        index = bisect.bisect_right(self.ys, y) - 1
        candidates = []
        if 0 <= index < len(self.strips):
            candidates.append(self.strips[index])
        if y == self.ys[index] and index - 1 >= 0:
            candidates.append(self.strips[index - 1])
        for intervals in candidates:
            pos = bisect.bisect_right([iv.lo for iv in intervals], x) - 1
            if pos >= 0 and intervals[pos].contains(x):
                return True
        return False


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[int, int] = {}

    def make(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def count_roots(self) -> int:
        return sum(1 for x in self.parent if self.parent[x] == x)


def union_rects(rects: Sequence[Rect]) -> RegionUnion:
    """Union of rectangles with exact area and connected-region count.

    Rectangles touching along an edge (not just a corner) are connected.
    Degenerate and empty rects are ignored.
    """
    boxes = [r for r in rects if not r.is_empty and r.width > 0 and r.height > 0]
    if not boxes:
        return RegionUnion(ys=[], strips=[], region_count=0, area=0)

    ys = sorted({v for r in boxes for v in (r.ylo, r.yhi)})
    # Bucket rects into the strips they span (events at ylo / yhi).
    starts: Dict[int, List[Rect]] = {}
    for r in boxes:
        starts.setdefault(r.ylo, []).append(r)

    strips: List[List[Interval]] = []
    active: List[Rect] = []
    area = 0
    uf = _UnionFind()
    next_id = 0
    previous: List[Tuple[Interval, int]] = []  # (interval, region id) of prior strip
    for ylo, yhi in zip(ys, ys[1:]):
        active.extend(starts.get(ylo, []))
        active = [r for r in active if r.yhi > ylo]
        merged = coalesce([Interval(r.xlo, r.xhi) for r in active if r.ylo <= ylo])
        strips.append(merged)
        height = yhi - ylo
        area += height * sum(iv.length for iv in merged)
        current: List[Tuple[Interval, int]] = []
        for iv in merged:
            region_id = next_id
            next_id += 1
            uf.make(region_id)
            # Connect to previous-strip intervals sharing positive x-extent
            # (edge contact connects; pure corner contact does not).
            for prev_iv, prev_id in previous:
                if iv.overlap_length(prev_iv) > 0:
                    uf.union(region_id, prev_id)
            current.append((iv, region_id))
        previous = current

    return RegionUnion(
        ys=ys, strips=strips, region_count=uf.count_roots(), area=area
    )


def union_polygons(polygons: Iterable[Polygon]) -> RegionUnion:
    """Region normalization: merge a layer's polygons into disjoint regions.

    This is the KLayout-style pre-pass the baselines execute before their
    checks.
    """
    rects: List[Rect] = []
    for polygon in polygons:
        if polygon.is_rectangle:
            rects.append(polygon.mbr)
        else:
            rects.extend(decompose_rectilinear(polygon))
    return union_rects(rects)


def polygons_area(polygons: Iterable[Polygon]) -> int:
    """Exact area of the union of polygons (overlaps counted once)."""
    return union_polygons(polygons).area


# ---------------------------------------------------------------------------
# Region algebra: AND / OR / SUB / XOR over strip decompositions
# ---------------------------------------------------------------------------


def _combine_interval_lists(
    a: List[Interval], b: List[Interval], op: str
) -> List[Interval]:
    """Boolean combination of two disjoint sorted interval lists.

    A boundary walk over both lists tracks inside/outside of each operand;
    the output contains the x ranges where ``op`` holds. Closed-interval
    bookkeeping follows region semantics: zero-length results are dropped.
    """
    events: List[Tuple[int, int, int]] = []  # (x, which, +1 open/-1 close)
    for iv in a:
        events.append((iv.lo, 0, 1))
        events.append((iv.hi, 0, -1))
    for iv in b:
        events.append((iv.lo, 1, 1))
        events.append((iv.hi, 1, -1))
    events.sort()

    def holds(in_a: bool, in_b: bool) -> bool:
        if op == "and":
            return in_a and in_b
        if op == "or":
            return in_a or in_b
        if op == "sub":
            return in_a and not in_b
        if op == "xor":
            return in_a != in_b
        raise ValueError(f"unknown op {op!r}")

    out: List[Interval] = []
    inside = [0, 0]
    start = 0
    active = False
    index = 0
    while index < len(events):
        x = events[index][0]
        # Apply every event at this x at once (opens before the state probe).
        while index < len(events) and events[index][0] == x:
            _, which, delta = events[index]
            inside[which] += delta
            index += 1
        now = holds(inside[0] > 0, inside[1] > 0)
        if now and not active:
            start = x
            active = True
        elif not now and active:
            if x > start:
                out.append(Interval(start, x))
            active = False
    return coalesce(out)


def combine_regions(a: RegionUnion, b: RegionUnion, op: str) -> RegionUnion:
    """Boolean combination of two regions (``and``/``or``/``sub``/``xor``).

    Strips of both operands are re-cut on the union of their y boundaries,
    combined per strip, and re-assembled (area and connectivity recomputed).
    """
    ys = sorted(set(a.ys) | set(b.ys))
    if not ys:
        return RegionUnion(ys=[], strips=[], region_count=0, area=0)
    rects: List[Rect] = []
    for ylo, yhi in zip(ys, ys[1:]):
        strip_a = _strip_at(a, ylo)
        strip_b = _strip_at(b, ylo)
        for iv in _combine_interval_lists(strip_a, strip_b, op):
            rects.append(Rect(iv.lo, ylo, iv.hi, yhi))
    return union_rects(rects)


def _strip_at(region: RegionUnion, y: int) -> List[Interval]:
    """The region's x-intervals on the strip starting at ``y`` (if any)."""
    if not region.ys:
        return []
    index = bisect.bisect_right(region.ys, y) - 1
    if index < 0 or index >= len(region.strips):
        return []
    # The strip [ys[index], ys[index+1]) covers y only if y < its top.
    if y >= region.ys[index + 1]:
        return []
    return region.strips[index]


def intersect_regions(a: RegionUnion, b: RegionUnion) -> RegionUnion:
    """A AND B — e.g. the CUT result between two layers."""
    return combine_regions(a, b, "and")


def subtract_regions(a: RegionUnion, b: RegionUnion) -> RegionUnion:
    """A NOT B — e.g. the paper's 'NOT CUT result between layers'."""
    return combine_regions(a, b, "sub")


def xor_regions(a: RegionUnion, b: RegionUnion) -> RegionUnion:
    """Symmetric difference (mask comparison)."""
    return combine_regions(a, b, "xor")


def or_regions(a: RegionUnion, b: RegionUnion) -> RegionUnion:
    """A OR B (re-normalized union of two regions)."""
    return combine_regions(a, b, "or")

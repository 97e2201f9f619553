"""Minimum overlapping-area check (inter-layer).

The paper's introduction lists "minimum overlapping area constraints"
between layers among the modern rules DRC must handle. The rule here:
every polygon on layer A must overlap the union of layer B's polygons with
at least ``min_area`` of area (e.g. a via must land on enough metal, a
contact on enough diffusion).

The overlap area is computed exactly with the boolean region substrate:
``area(A_polygon AND union(candidate B polygons))``. Candidates come from a
bipartite MBR sweep — only B polygons overlapping the A polygon's MBR can
contribute.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..geometry.booleans import intersect_regions, union_polygons
from ..spatial.sweepline import iter_bipartite_overlaps
from ..violation_table import KIND_CODES, Row
from .base import PlacedRing, Shape, as_polygon, ring_shape, shape_mbr

OVERLAP = KIND_CODES["overlap"]


def overlap_area(polygon: Shape, others: Sequence[Shape]) -> int:
    """Exact area of ``polygon`` AND the union of ``others`` (any of them may
    be a ``Rect`` standing for a rectangle, see :data:`Shape`)."""
    if not others:
        return 0
    return intersect_regions(
        union_polygons([as_polygon(polygon)]), union_polygons(list(map(as_polygon, others)))
    ).area


class OverlapProcedures:
    """Minimum overlapping area between layers (paper §I motivation).

    The cross-layer procedure object the hierarchical pending-object
    resolution calls; registered per rule kind in :mod:`repro.core.plan`.
    """

    #: No single base decides a via: the area is taken against the union of
    #: all of its candidates, so every one of them reaches :meth:`satisfied`.
    box_satisfied = None

    def satisfied(self, polygon: Shape, bases: Sequence[Shape], value: int) -> bool:
        return overlap_area(polygon, bases) >= value

    def violations(self, polygon, bases, top_layer, base_layer, value) -> List[Row]:
        area = overlap_area(polygon, bases)
        if area >= value:
            return []
        return [(top_layer, OVERLAP, *shape_mbr(polygon), base_layer, area, value)]


def check_min_overlap(
    tops: Sequence[PlacedRing],
    bases: Sequence[PlacedRing],
    top_layer: int,
    base_layer: int,
    min_area: int,
) -> List[Row]:
    """A violation row for every top-layer placed ring overlapping the
    base rings by < ``min_area``; each ring is judged as its
    :func:`~repro.checks.base.ring_shape`."""
    candidates: List[List[Shape]] = [[] for _ in tops]
    base_shapes: Dict[int, Shape] = {}
    for i, j in iter_bipartite_overlaps([mbr for _, mbr in tops], [mbr for _, mbr in bases]):
        base = base_shapes.get(j)
        if base is None:
            base = base_shapes[j] = ring_shape(*bases[j])
        candidates[i].append(base)

    found: List[Row] = []
    for (ring, mbr), cands in zip(tops, candidates):
        area = overlap_area(ring_shape(ring, mbr), cands)
        if area < min_area:
            found.append((top_layer, OVERLAP, *mbr, base_layer, area, min_area))
    return found

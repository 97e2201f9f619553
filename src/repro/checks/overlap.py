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

from typing import List, Sequence

from ..geometry import Polygon
from ..geometry.booleans import intersect_regions, union_polygons
from ..spatial.sweepline import iter_bipartite_overlaps
from .base import Shape, Violation, ViolationKind, as_polygon, shape_mbr


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

    def satisfied(self, polygon: Shape, bases: Sequence[Shape], value: int) -> bool:
        return overlap_area(polygon, bases) >= value

    def violations(self, polygon, bases, top_layer, base_layer, value):
        area = overlap_area(polygon, bases)
        if area >= value:
            return []
        return [
            Violation(
                kind=ViolationKind.OVERLAP,
                layer=top_layer,
                other_layer=base_layer,
                region=shape_mbr(polygon),
                measured=area,
                required=value,
            )
        ]


def check_min_overlap(
    top_polys: Sequence[Polygon],
    base_polys: Sequence[Polygon],
    top_layer: int,
    base_layer: int,
    min_area: int,
) -> List[Violation]:
    """Flag every top-layer polygon overlapping base geometry by < min_area."""
    candidates: List[List[Polygon]] = [[] for _ in top_polys]
    top_rects = [p.mbr for p in top_polys]
    base_rects = [p.mbr for p in base_polys]
    for i, j in iter_bipartite_overlaps(top_rects, base_rects):
        candidates[i].append(base_polys[j])

    violations: List[Violation] = []
    for polygon, cands in zip(top_polys, candidates):
        area = overlap_area(polygon, cands)
        if area >= min_area:
            continue
        violations.append(
            Violation(
                kind=ViolationKind.OVERLAP,
                layer=top_layer,
                other_layer=base_layer,
                region=polygon.mbr,
                measured=area,
                required=min_area,
            )
        )
    return violations

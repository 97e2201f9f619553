"""Minimum width check (intra-polygon distance rule)."""

from __future__ import annotations

from typing import List

from ..geometry import Polygon
from ..geometry.polygon import edge_rows_of
from .base import Violation, ViolationKind
from .edges import width_regions, width_violation_regions


def check_polygon_width(polygon: Polygon, layer: int, min_width: int) -> List[Violation]:
    """Width violations of one polygon: interior strips narrower than ``min_width``."""
    return _violations(width_violation_regions(polygon, min_width), layer, min_width)


def check_ring_width(rings, layer: int, min_width: int) -> List[Violation]:
    """Width violations of every ring of one :class:`~repro.layout.cell.RingBuffer`,
    in its frame, read off the coordinates (no ``Polygon`` built). A rectangle
    (by the buffer's :meth:`~repro.layout.cell.RingBuffer.rect_flags`) has as
    its only facing pairs its two sides of each axis, so its markers are its
    MBR with the height, then the width, where narrower than ``min_width``."""
    violations: List[Violation] = []
    for index, rectangle in enumerate(rings.rect_flags()):
        if rectangle:
            mbr = rings.mbr(index)
            regions = [
                (mbr, distance)
                for distance in (mbr.yhi - mbr.ylo, mbr.xhi - mbr.xlo)
                if distance < min_width
            ]
        else:
            regions = width_regions(edge_rows_of(rings.points(index)), min_width)
        violations.extend(_violations(regions, layer, min_width))
    return violations


def check_width(polygons, layer: int, min_width: int) -> List[Violation]:
    """Width violations over a polygon collection."""
    violations: List[Violation] = []
    for polygon in polygons:
        violations.extend(check_polygon_width(polygon, layer, min_width))
    return violations


def _violations(regions, layer: int, min_width: int) -> List[Violation]:
    return [
        Violation(
            kind=ViolationKind.WIDTH,
            layer=layer,
            region=region,
            measured=distance,
            required=min_width,
        )
        for region, distance in regions
    ]

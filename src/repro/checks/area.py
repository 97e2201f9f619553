"""Minimum area check (intra-polygon, Shoelace Theorem — paper §IV-D).

X-Check cannot perform this rule (its evaluation column is empty in the
paper's Table I); OpenDRC adds it, and so do we.
"""

from __future__ import annotations

from typing import List

from ..geometry import Polygon, signed_area2
from .base import Violation, ViolationKind


def check_polygon_area(polygon: Polygon, layer: int, min_area: int) -> List[Violation]:
    """Flag ``polygon`` if its Shoelace area is below ``min_area``."""
    area = polygon.area
    if area >= min_area:
        return []
    return [_violation(polygon.mbr, area, layer, min_area)]


def check_ring_area(rings, layer: int, min_area: int) -> List[Violation]:
    """Area violations of every ring of one :class:`~repro.layout.cell.RingBuffer`,
    in its frame, read off the coordinates (no ``Polygon`` built): a
    rectangle's (by the buffer's :meth:`~repro.layout.cell.RingBuffer.rect_flags`)
    is ``w * h`` off the MBR table, any other ring's the Shoelace sum."""
    violations: List[Violation] = []
    mbrs = rings.mbrs
    for index, rectangle in enumerate(rings.rect_flags()):
        if rectangle:
            xlo, ylo, xhi, yhi = mbrs[4 * index : 4 * index + 4]
            area = (xhi - xlo) * (yhi - ylo)
        else:
            area = abs(signed_area2(rings.points(index))) // 2
        if area < min_area:
            violations.append(_violation(rings.mbr(index), area, layer, min_area))
    return violations


def _violation(region, area: int, layer: int, min_area: int) -> Violation:
    return Violation(
        kind=ViolationKind.AREA,
        layer=layer,
        region=region,
        measured=area,
        required=min_area,
    )


def check_area(polygons, layer: int, min_area: int) -> List[Violation]:
    """Area violations over a polygon collection."""
    violations: List[Violation] = []
    for polygon in polygons:
        violations.extend(check_polygon_area(polygon, layer, min_area))
    return violations

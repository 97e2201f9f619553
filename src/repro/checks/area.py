"""Minimum area check (intra-polygon, Shoelace Theorem — paper §IV-D).

X-Check cannot perform this rule (its evaluation column is empty in the
paper's Table I); OpenDRC adds it, and so do we.
"""

from __future__ import annotations

from typing import Iterable, List

from ..geometry import signed_area2
from .base import PlacedRing, Violation, ViolationKind


def check_ring_area(rings, layer: int, min_area: int) -> List[Violation]:
    """Area violations of every ring of one :class:`~repro.layout.cell.RingBuffer`,
    in its frame, read off the coordinates: a rectangle's (by the buffer's
    :meth:`~repro.layout.cell.RingBuffer.rect_flags`) is ``w * h`` off the
    MBR table, any other ring's the Shoelace sum."""
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


def check_area(rings: Iterable[PlacedRing], layer: int, min_area: int) -> List[Violation]:
    """Area violations of placed rings: each ring whose
    Shoelace area is below ``min_area``, marked by its MBR."""
    violations: List[Violation] = []
    for ring, mbr in rings:
        area = abs(signed_area2(ring)) // 2
        if area < min_area:
            violations.append(_violation(mbr, area, layer, min_area))
    return violations


def _violation(region, area: int, layer: int, min_area: int) -> Violation:
    return Violation(
        kind=ViolationKind.AREA,
        layer=layer,
        region=region,
        measured=area,
        required=min_area,
    )

"""Minimum area check (intra-polygon, Shoelace Theorem — paper §IV-D).

X-Check cannot perform this rule (its evaluation column is empty in the
paper's Table I); OpenDRC adds it, and so do we.
"""

from __future__ import annotations

from typing import Iterable, List

from ..geometry import signed_area2
from ..violation_table import KIND_CODES, Row
from .base import PlacedRing

AREA = KIND_CODES["area"]


def check_ring_area(rings, layer: int, min_area: int) -> List[Row]:
    """Area violation rows of every ring of one :class:`~repro.layout.cell.RingBuffer`,
    in its frame, read off the coordinates: a rectangle's (by the buffer's
    :meth:`~repro.layout.cell.RingBuffer.rect_flags`) is ``w * h`` off the
    MBR table, any other ring's the Shoelace sum."""
    found: List[Row] = []
    mbrs = rings.mbrs
    for index, rectangle in enumerate(rings.rect_flags()):
        xlo, ylo, xhi, yhi = mbrs[4 * index : 4 * index + 4]
        if rectangle:
            area = (xhi - xlo) * (yhi - ylo)
        else:
            area = abs(signed_area2(rings.points(index))) // 2
        if area < min_area:
            found.append((layer, AREA, xlo, ylo, xhi, yhi, -1, area, min_area))
    return found


def check_area(rings: Iterable[PlacedRing], layer: int, min_area: int) -> List[Row]:
    """Area violation rows of placed rings: each ring whose
    Shoelace area is below ``min_area``, marked by its MBR."""
    found: List[Row] = []
    for ring, mbr in rings:
        area = abs(signed_area2(ring)) // 2
        if area < min_area:
            found.append((layer, AREA, *mbr, -1, area, min_area))
    return found

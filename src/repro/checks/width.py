"""Minimum width check (intra-polygon distance rule)."""

from __future__ import annotations

from typing import Iterable, List

from ..geometry.polygon import edge_rows_of, is_rectangle_ring
from ..violation_table import KIND_CODES, Row
from .base import PlacedRing
from .edges import width_regions

WIDTH = KIND_CODES["width"]


def check_ring_width(rings, layer: int, min_width: int) -> List[Row]:
    """Width violation rows of every ring of one :class:`~repro.layout.cell.RingBuffer`,
    in its frame, read off the coordinates (no ``Polygon`` built). A rectangle
    (by the buffer's :meth:`~repro.layout.cell.RingBuffer.rect_flags`) has as
    its only facing pairs its two sides of each axis, so its markers are its
    MBR with the height, then the width, where narrower than ``min_width``."""
    found: List[Row] = []
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
        found += _rows(regions, layer, min_width)
    return found


def check_width(rings: Iterable[PlacedRing], layer: int, min_width: int) -> List[Row]:
    """Width violation rows of placed rings: interior strips narrower than
    ``min_width``; a rectangle's off its MBR alone, as :func:`check_ring_width`
    reads it."""
    found: List[Row] = []
    for ring, mbr in rings:
        if is_rectangle_ring(ring):
            regions = [
                (mbr, distance)
                for distance in (mbr.yhi - mbr.ylo, mbr.xhi - mbr.xlo)
                if distance < min_width
            ]
        else:
            regions = width_regions(edge_rows_of(ring), min_width)
        found += _rows(regions, layer, min_width)
    return found


def _rows(regions, layer: int, min_width: int) -> List[Row]:
    return [(layer, WIDTH, *region, -1, distance, min_width) for region, distance in regions]

"""Minimum width check (intra-polygon distance rule)."""

from __future__ import annotations

from typing import Iterable, List

from ..geometry.polygon import edge_rows_of, is_rectangle_ring
from .base import PlacedRing, Violation, ViolationKind
from .edges import width_regions


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


def check_width(rings: Iterable[PlacedRing], layer: int, min_width: int) -> List[Violation]:
    """Width violations of placed rings: interior strips narrower than
    ``min_width``; a rectangle's off its MBR alone, as :func:`check_ring_width`
    reads it."""
    violations: List[Violation] = []
    for ring, mbr in rings:
        if is_rectangle_ring(ring):
            regions = [
                (mbr, distance)
                for distance in (mbr.yhi - mbr.ylo, mbr.xhi - mbr.xlo)
                if distance < min_width
            ]
        else:
            regions = width_regions(edge_rows_of(ring), min_width)
        violations.extend(_violations(regions, layer, min_width))
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

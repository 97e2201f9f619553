"""Shape rule: all polygons must be rectilinear (paper Listing 1, rule 1)."""

from __future__ import annotations

from typing import Iterable, List

from ..geometry.polygon import is_rectilinear_ring
from .base import PlacedRing, Violation, ViolationKind


def check_rectilinear(rings: Iterable[PlacedRing], layer: int) -> List[Violation]:
    """Flag every placed ring with a non-axis-parallel
    edge, marked by its MBR."""
    return [
        Violation(kind=ViolationKind.SHAPE, layer=layer, region=mbr, measured=0, required=1)
        for ring, mbr in rings
        if not is_rectilinear_ring(ring)
    ]

"""Shape rule: all polygons must be rectilinear (paper Listing 1, rule 1)."""

from __future__ import annotations

from typing import Iterable, List

from ..geometry.polygon import is_rectilinear_ring
from ..violation_table import KIND_CODES, Row
from .base import PlacedRing

SHAPE = KIND_CODES["shape"]


def check_rectilinear(rings: Iterable[PlacedRing], layer: int) -> List[Row]:
    """A violation row for every placed ring with a non-axis-parallel
    edge, marked by its MBR."""
    return [(layer, SHAPE, *mbr, -1, 0, 1) for ring, mbr in rings if not is_rectilinear_ring(ring)]

"""User-defined predicate rule (paper Listing 1, rule 3: ``ensures()``).

``ensures`` takes any callable over a polygon; a falsy result flags the
polygon. This is the extensibility hook the paper's general programming
interface exposes to researchers.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

from ..geometry import Point, Polygon, Rect
from ..violation_table import KIND_CODES, Row

PREDICATE = KIND_CODES["predicate"]


def check_ensures(
    rings: Iterable[Tuple[Sequence, Rect, str]],
    layer: int,
    predicate: Callable[[Polygon], bool],
) -> List[Row]:
    """A violation row for every named placed ring ``(vertices, mbr, name)``
    for which ``predicate`` returns falsy. The predicate's argument is the one
    ``Polygon`` a check builds to read a ring: the ring with its name."""
    return [
        (layer, PREDICATE, *mbr, -1, 0, 1)
        for ring, mbr, name in rings
        if not predicate(Polygon._normalised(tuple(map(Point._make, ring)), name, mbr))
    ]

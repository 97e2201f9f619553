"""The local diff of one cell before it looked only between the common
prefix and suffix of the two ring buffers — kept here as the reference
``tests/test_diff_reference.py`` holds :func:`repro.core.diff._cell_local_dirty`
to.

Every ring of both buffers became bytes; rings with equal bytes cancelled
one for one, and the polygon multisets were formed of what was left.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.geometry import Rect


def cell_local_dirty(old_cell, new_cell, layer: int) -> List[Rect]:
    """MBRs of the symmetric difference of two cells' local polygons."""
    old_rings = old_cell.rings(layer) if old_cell else None
    new_rings = new_cell.rings(layer) if new_cell else None
    if old_rings is None and new_rings is None:
        return []
    if old_rings is not None and new_rings is not None and old_rings.same_rings(new_rings):
        return []
    old_keys = old_rings.ring_bytes() if old_rings else []
    new_keys = new_rings.ring_bytes() if new_rings else []
    old_polys = Counter(_unmatched(old_rings, old_keys, Counter(new_keys)))
    new_polys = Counter(_unmatched(new_rings, new_keys, Counter(old_keys)))
    rects: List[Rect] = []
    for polygon, count in old_polys.items():
        if new_polys.get(polygon, 0) != count:
            rects.append(polygon.mbr)
    for polygon, count in new_polys.items():
        if old_polys.get(polygon, 0) != count:
            rects.append(polygon.mbr)
    return rects


def _unmatched(rings, keys: List[bytes], available: Counter) -> List:
    left = []
    for index, key in enumerate(keys):
        if available[key] > 0:
            available[key] -= 1
        else:
            left.append(rings.polygon(index))
    return left

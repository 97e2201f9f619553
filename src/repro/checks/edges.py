"""Edge-pair primitives behind all distance rules (paper §IV-D).

Every distance rule reduces to classifying pairs of parallel edges by which
sides of them are polygon interior:

* **width** pair — the interiors face each other (the strip between the
  edges is inside the polygon): both ``e1.faces(e2)`` and ``e2.faces(e1)``;
* **spacing** pair — the exteriors face each other (the strip between the
  edges is outside both polygons): neither faces the other, with a strictly
  positive gap. A zero gap means the shapes abut, which this engine (like
  merged-region checkers) treats as connected rather than violating.

Both classifications additionally require a positive common projection; pure
corner-to-corner proximity is out of scope for the reproduced rule set (the
paper's roadmap defers "general geometric shapes").
"""

from __future__ import annotations

from typing import List, Tuple

from ..geometry import Polygon, Rect
from ..geometry.polygon import EdgeRows


def width_violation_regions(polygon: Polygon, min_width: int) -> List[Tuple[Rect, int]]:
    """All interior strips of ``polygon`` narrower than ``min_width``.

    Returns ``(region, measured_distance)`` per violating edge pair.
    """
    rows = polygon.edge_rows()
    return _facing_pairs(rows, rows, min_width, want_width=True, skip=True)


def _facing_pairs(
    rows_a: EdgeRows,
    rows_b: EdgeRows,
    threshold: int,
    *,
    want_width: bool,
    skip: bool,
) -> List[Tuple[Rect, int]]:
    """Parallel row pairs of two ``Polygon.edge_rows`` tables closer than ``threshold``.

    With ``skip`` both tables are the same polygon's and only unordered
    pairs are inspected.
    """
    # Width pairs need the near edge's interior normal pointing at the far
    # edge (sign +1 toward greater coordinates); spacing pairs the opposite.
    near_sign = 1 if want_width else -1
    results: List[Tuple[Rect, int]] = []
    for horizontal, axis_a, axis_b in ((True, rows_a[0], rows_b[0]), (False, rows_a[1], rows_b[1])):
        for i, (f1, lo1, hi1, s1) in enumerate(axis_a):
            for f2, lo2, hi2, s2 in axis_b[i + 1 :] if skip else axis_b:
                delta = f2 - f1
                if delta >= 0:
                    distance = delta
                    sign_near, sign_far = s1, s2
                else:
                    distance = -delta
                    sign_near, sign_far = s2, s1
                if distance == 0 or distance >= threshold:
                    continue
                if sign_near != near_sign or sign_far != -near_sign:
                    continue
                lo = lo1 if lo1 > lo2 else lo2
                hi = hi1 if hi1 < hi2 else hi2
                if hi <= lo:
                    continue
                c1, c2 = (f1, f2) if f1 < f2 else (f2, f1)
                region = Rect(lo, c1, hi, c2) if horizontal else Rect(c1, lo, c2, hi)
                results.append((region, distance))
    return results


def polygon_spacing_violations(
    p: Polygon, q: Polygon, min_space: int
) -> List[Tuple[Rect, int]]:
    """Exterior strips between two distinct polygons narrower than ``min_space``."""
    return _facing_pairs(p.edge_rows(), q.edge_rows(), min_space, want_width=False, skip=False)


def polygon_notch_violations(p: Polygon, min_space: int) -> List[Tuple[Rect, int]]:
    """Spacing violations of a polygon against itself (notches)."""
    rows = p.edge_rows()
    return _facing_pairs(rows, rows, min_space, want_width=False, skip=True)

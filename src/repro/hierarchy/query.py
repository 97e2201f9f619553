"""Layer range queries over the MBR-augmented hierarchy tree (paper §IV-A).

``layer_range_query`` descends from the top structure and prunes every
subtree whose MBR for the queried layer is empty or disjoint from the query
window, achieving the paper's O(min(n, kh)) bound — ``n`` leaves, ``k``
outputs, ``h`` tree height. The returned :class:`QueryStats` exposes the
visit counts the complexity tests assert on.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import List, Optional, Tuple

from ..geometry import Polygon, Rect, Transform
from ..layout.cell import Cell
from .tree import HierarchyTree


@dataclasses.dataclass
class QueryStats:
    """Instrumentation of one range query."""

    cells_visited: int = 0
    cells_pruned: int = 0
    polygons_tested: int = 0
    polygons_reported: int = 0


def layer_range_query(
    tree: HierarchyTree,
    layer: int,
    window: Rect,
    *,
    stats: Optional[QueryStats] = None,
) -> List[Polygon]:
    """All polygons of ``layer`` whose MBRs overlap ``window`` (top coordinates).

    Polygons are returned transformed into top-cell coordinates.
    """
    out: List[Polygon] = []
    for polygon, transform in iter_layer_range(tree, layer, window, stats=stats):
        out.append(polygon.transformed(transform))
    return out


def iter_layer_range(
    tree: HierarchyTree,
    layer: int,
    window: Rect,
    *,
    stats: Optional[QueryStats] = None,
):
    """Lazy variant yielding ``(local_polygon, accumulated_transform)`` pairs.

    Callers that only need counts or MBRs avoid materializing transformed
    polygons.
    """
    if stats is None:
        stats = QueryStats()
    if window.is_empty:
        return

    def visit(cell: Cell, transform: Transform, local_window: Rect):
        stats.cells_visited += 1
        for polygon in cell.polygons(layer):
            stats.polygons_tested += 1
            if polygon.mbr.overlaps(local_window):
                stats.polygons_reported += 1
                yield polygon, transform
        stats.cells_pruned += sum(
            not tree.has_layer(ref.cell_name, layer) for ref in cell.references
        )
        for child_name, placement, placed_mbr in tree.placed_children(cell.name, layer):
            if not placed_mbr.overlaps(local_window):
                stats.cells_pruned += 1
                continue
            child_window = pull_back_window(placement, local_window)
            yield from visit(
                tree.layout.cell(child_name), transform.compose(placement), child_window
            )

    top_mbr = tree.layer_mbr(tree.top.name, layer)
    if top_mbr.is_empty or not top_mbr.overlaps(window):
        stats.cells_pruned += 1
        return
    yield from visit(tree.top, Transform(), window)


def count_layer_range(
    tree: HierarchyTree, layer: int, window: Rect
) -> Tuple[int, QueryStats]:
    """Number of layer polygons overlapping ``window`` plus instrumentation."""
    stats = QueryStats()
    count = sum(1 for _ in iter_layer_range(tree, layer, window, stats=stats))
    return count, stats


def pull_back_window(placement: Transform, window: Rect) -> Rect:
    """Inverse-map a window into the child's local coordinates.

    A placement's matrix is ``m R`` with ``R`` an integer rotation/mirror, so
    its inverse is the transpose over ``m**2``: exact integers for a rigid
    placement. For magnified placements the exact inverse image may have
    fractional corners; rounding outward only enlarges the window, which is
    always safe for MBR-gathering (a superset of candidates, never a miss).
    """
    if window.is_empty:
        return window
    a, b, c, d = placement._matrix
    xlo, ylo = window.xlo - placement.dx, window.ylo - placement.dy
    xhi, yhi = window.xhi - placement.dx, window.yhi - placement.dy
    x1, y1 = a * xlo + c * ylo, b * xlo + d * ylo
    x2, y2 = a * xhi + c * yhi, b * xhi + d * yhi
    if placement.magnification == 1:
        return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    scale = Fraction(placement.magnification) ** 2
    return Rect(
        math.floor(min(x1, x2) / scale), math.floor(min(y1, y2) / scale),
        math.ceil(max(x1, x2) / scale), math.ceil(max(y1, y2) / scale),
    )


def invert(transform: Transform) -> Transform:
    """Inverse of a placement transform (magnification must be invertible)."""
    # Inverse linear part: undo rotation then mirror; composed directly.
    if transform.mirror_x:
        rotation = transform.rotation % 360
    else:
        rotation = (-transform.rotation) % 360
    if transform.magnification == 1:
        a, b, c, d = transform._matrix  # orthogonal: the inverse is the transpose
        return Transform(
            -(a * transform.dx + c * transform.dy),
            -(b * transform.dx + d * transform.dy),
            rotation,
            transform.mirror_x,
            1,
        )
    inv_mag = 1 / Fraction(transform.magnification)
    linear_inverse = Transform(
        0, 0, rotation, transform.mirror_x, inv_mag if inv_mag.denominator != 1 else int(inv_mag)
    )
    origin = linear_inverse.apply_rect(
        Rect(transform.dx, transform.dy, transform.dx, transform.dy)
    )
    return Transform(
        -origin.xlo,
        -origin.ylo,
        linear_inverse.rotation,
        linear_inverse.mirror_x,
        linear_inverse.magnification,
    )

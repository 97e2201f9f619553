"""Multi-patterning coloring check (paper §II: "multi-color design rules
for multi-patterning lithography").

Double-patterning (LELE) prints one layer with two masks; shapes closer
than the same-mask spacing must land on different masks. That is exactly
2-colorability of the *conflict graph* — nodes are shapes, edges connect
pairs closer than the color spacing. The layer is manufacturable iff the
graph is bipartite; every odd cycle is a coloring conflict.

The check builds the conflict graph from the same candidate machinery as
the spacing rule (rule-inflated MBR sweep, exterior-facing edge pairs) and
BFS-2-colors each component. For a non-bipartite component it reports the
conflict edges whose endpoints received equal colors — the markers a
designer must break to make the layer decomposable. A successful check also
yields the color assignment (:func:`two_color`), usable downstream.

Because conflict edges require distance < spacing, the conflict graph never
crosses adaptive-partition rows — components, and therefore colorability,
are decided row-locally, so the engine's row machinery applies unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Rect
from ..geometry.polygon import EdgeRows, canonical_ring, edge_rows_of
from ..spatial.sweepline import iter_overlapping_pairs
from ..violation_table import KIND_CODES, Row
from .base import PlacedRing
from .edges import spacing_regions

COLOR = KIND_CODES["color"]


def canonical_order(rings: List[PlacedRing]) -> None:
    """Sort placed rings in place by MBR, then canonical vertices: the
    order both execution modes and the windowed procedure build the
    conflict graph in, so the odd-cycle markers they report agree."""
    rings.sort(key=lambda ring: (ring[1], canonical_ring(ring[0])))


def conflict_edges(
    rings: Sequence[PlacedRing], color_spacing: int
) -> List[Tuple[int, int, Rect, int]]:
    """All ring pairs closer than ``color_spacing``: (i, j, region, distance).

    The region/distance come from the closest exterior-facing edge pair, the
    same measurement the spacing rule reports. Edges come in ``(i, j)``
    order, not the sweep's: the BFS coloring, and so which conflicts are
    reported on a layer that is not 2-colorable, depends on it.
    """
    margin = (color_spacing + 1) // 2
    inflated = [mbr.inflated(margin) for _, mbr in rings]
    rows: Dict[int, EdgeRows] = {}

    def rows_of(index: int) -> EdgeRows:
        table = rows.get(index)
        if table is None:
            table = rows[index] = edge_rows_of(rings[index][0])
        return table

    out: List[Tuple[int, int, Rect, int]] = []
    for i, j in sorted(iter_overlapping_pairs(inflated)):
        hits = spacing_regions(rows_of(i), rows_of(j), color_spacing)
        if not hits:
            continue
        region, distance = min(hits, key=lambda h: h[1])
        out.append((i, j, region, distance))
    return out


def two_color(
    rings: Sequence[PlacedRing], color_spacing: int
) -> Tuple[Optional[List[int]], List[Tuple[int, int, Rect, int]]]:
    """BFS 2-coloring of the conflict graph of placed rings.

    Returns ``(colors, conflicts)``: a 0/1 color per ring and the list of
    conflict edges whose endpoints could not be separated (empty when the
    layer is decomposable; ``colors`` is then a valid assignment). When
    conflicts exist, ``colors`` still holds the best-effort BFS assignment.
    """
    edges = conflict_edges(rings, color_spacing)
    adjacency: Dict[int, List[int]] = {}
    for i, j, _, _ in edges:
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)

    colors: List[int] = [-1] * len(rings)
    for start in range(len(rings)):
        if colors[start] != -1:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            node = queue.pop()
            for neighbour in adjacency.get(node, ()):
                if colors[neighbour] == -1:
                    colors[neighbour] = 1 - colors[node]
                    queue.append(neighbour)

    conflicts = [
        (i, j, region, distance)
        for i, j, region, distance in edges
        if colors[i] == colors[j]
    ]
    return colors, conflicts


def check_two_colorable(
    rings: Sequence[PlacedRing], layer: int, color_spacing: int
) -> List[Row]:
    """A violation row for every conflict edge that defeats the 2-coloring.

    A clean report means the layer decomposes into two masks with all
    same-mask distances >= ``color_spacing``.
    """
    _, conflicts = two_color(rings, color_spacing)
    return [
        (layer, COLOR, *region, -1, distance, color_spacing)
        for _, _, region, distance in conflicts
    ]

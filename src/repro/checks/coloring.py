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

from ..geometry import Polygon, Rect
from ..spatial.sweepline import iter_overlapping_pairs
from .base import Violation, ViolationKind
from .edges import polygon_spacing_violations


def conflict_edges(
    polygons: Sequence[Polygon], color_spacing: int
) -> List[Tuple[int, int, Rect, int]]:
    """All shape pairs closer than ``color_spacing``: (i, j, region, distance).

    The region/distance come from the closest exterior-facing edge pair, the
    same measurement the spacing rule reports. Edges come in ``(i, j)``
    order, not the sweep's: the BFS coloring, and so which conflicts are
    reported on a layer that is not 2-colorable, depends on it.
    """
    margin = (color_spacing + 1) // 2
    inflated = [p.mbr.inflated(margin) for p in polygons]
    out: List[Tuple[int, int, Rect, int]] = []
    for i, j in sorted(iter_overlapping_pairs(inflated)):
        hits = polygon_spacing_violations(polygons[i], polygons[j], color_spacing)
        if not hits:
            continue
        region, distance = min(hits, key=lambda h: h[1])
        out.append((i, j, region, distance))
    return out


def two_color(
    polygons: Sequence[Polygon], color_spacing: int
) -> Tuple[Optional[List[int]], List[Tuple[int, int, Rect, int]]]:
    """BFS 2-coloring of the conflict graph.

    Returns ``(colors, conflicts)``: a 0/1 color per polygon and the list of
    conflict edges whose endpoints could not be separated (empty when the
    layer is decomposable; ``colors`` is then a valid assignment). When
    conflicts exist, ``colors`` still holds the best-effort BFS assignment.
    """
    edges = conflict_edges(polygons, color_spacing)
    adjacency: Dict[int, List[int]] = {}
    for i, j, _, _ in edges:
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)

    colors: List[int] = [-1] * len(polygons)
    for start in range(len(polygons)):
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
    polygons: Sequence[Polygon], layer: int, color_spacing: int
) -> List[Violation]:
    """Flag every conflict edge that defeats the 2-coloring.

    A clean report means the layer decomposes into two masks with all
    same-mask distances >= ``color_spacing``.
    """
    _, conflicts = two_color(polygons, color_spacing)
    return [
        Violation(
            kind=ViolationKind.COLOR,
            layer=layer,
            region=region,
            measured=distance,
            required=color_spacing,
        )
        for _, _, region, distance in conflicts
    ]

"""Flattening: expand a hierarchical layout to transformed polygons.

The engine itself never flattens (paper §IV-A); this module exists for the
flat-mode baselines (KLayout-like flat/tiling, X-Check), for cross-checker
result validation, and for statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..geometry import Polygon, Transform
from .cell import Cell
from .library import Layout


def iter_flat_polygons(
    layout: Layout,
    *,
    top: Optional[str] = None,
    layers: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[int, Polygon]]:
    """Yield ``(layer, polygon)`` in top-cell coordinates, depth-first.

    ``layers`` restricts output (and prunes recursion into cells whose
    subtree holds nothing on those layers, mirroring the MBR-pruned layer
    range query of paper §IV-A).
    """
    layout.validate()
    wanted = set(layers) if layers is not None else None
    top_cell = layout.cell(top) if top else layout.top_cell()
    reachable_layers = _subtree_layers(layout)

    def visit(cell: Cell, transform: Transform) -> Iterator[Tuple[int, Polygon]]:
        for layer in cell.local_layers():
            if wanted is not None and layer not in wanted:
                continue
            for polygon in cell.polygons(layer):
                yield layer, polygon.transformed(transform)
        for ref in cell.references:
            child = layout.cell(ref.cell_name)
            if wanted is not None and not (reachable_layers[child.name] & wanted):
                continue
            for placement in ref.placements():
                yield from visit(child, transform.compose(placement))

    yield from visit(top_cell, Transform())


def flatten(
    layout: Layout,
    *,
    top: Optional[str] = None,
    layers: Optional[Sequence[int]] = None,
) -> Dict[int, List[Polygon]]:
    """Flatten to a per-layer polygon dictionary in top-cell coordinates."""
    result: Dict[int, List[Polygon]] = {}
    for layer, polygon in iter_flat_polygons(layout, top=top, layers=layers):
        result.setdefault(layer, []).append(polygon)
    return result


def flatten_layer(layout: Layout, layer: int, *, top: Optional[str] = None) -> List[Polygon]:
    """Flatten a single layer."""
    return flatten(layout, top=top, layers=[layer]).get(layer, [])


def polygon_rings(polygons: Iterable[Polygon], *, named: bool = False) -> List[Tuple]:
    """Polygons as the placed rings the check procedures take,
    ``(vertices, mbr)``; with ``named`` each polygon's name comes third."""
    if named:
        return [(polygon.vertices, polygon.mbr, polygon.name) for polygon in polygons]
    return [(polygon.vertices, polygon.mbr) for polygon in polygons]


def count_flat_polygons(layout: Layout, *, top: Optional[str] = None) -> Dict[int, int]:
    """Per-layer flat polygon counts *without* materializing geometry.

    Uses instance counts, so it is O(cells), not O(instances).
    """
    counts = layout.instance_counts(top)
    result: Dict[int, int] = {}
    for cell in layout.cells.values():
        multiplier = counts[cell.name]
        if multiplier == 0:
            continue
        for layer in cell.local_layers():
            result[layer] = result.get(layer, 0) + multiplier * len(cell.rings(layer))
    return result


def _subtree_layers(layout: Layout) -> Dict[str, set]:
    """For each cell: the set of layers present anywhere in its subtree."""
    result: Dict[str, set] = {}
    for cell in layout.topological_order():
        layers = set(cell.local_layers())
        for ref in cell.references:
            layers |= result[ref.cell_name]
        result[cell.name] = layers
    return result

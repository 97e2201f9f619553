"""The recursive per-instance packers the parallel mode used before the
instance table — kept here as the reference ``tests/test_instance_table.py``
holds the table's buffers to, as multisets.

Each definition's buffer is packed bottom-up from ``Polygon`` objects and
every instance is one ``transform_pair`` / ``transform_rects`` call on the
child's arrays; a row's buffer is the concatenation of its level items'.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.geometry import IDENTITY, Polygon, Transform
from repro.gpu.kernels import EdgeBuffer, pack_edges
from repro.hierarchy.edgepack import EdgeBufferPair, RectBuffer, _int_matrix
from repro.hierarchy.pruning import LevelItem
from repro.hierarchy.tree import HierarchyTree

from .reference_sequential import iter_instances

_INT = np.int64


def empty_pair() -> EdgeBufferPair:
    z = np.zeros(0, dtype=_INT)
    return EdgeBufferPair(EdgeBuffer(True, z, z, z, z, z), EdgeBuffer(False, z, z, z, z, z), 0)


def transform_pair(pair: EdgeBufferPair, transform: Transform, id_offset: int) -> EdgeBufferPair:
    """Apply a placement transform to a buffer pair (vectorised).

    Vertical edges may become horizontal (and vice versa) under 90/270
    rotations. Interior-normal signs transform with the linear map, so the
    width/spacing classification of every edge survives instantiation.
    """
    a, b, c, d = _int_matrix(transform)
    out_v: List[EdgeBuffer] = []
    out_h: List[EdgeBuffer] = []
    for buf in (pair.vertical, pair.horizontal):
        if len(buf) == 0:
            continue
        moved = _map_edges(
            buf, a, b, c, d, transform.dx, transform.dy, from_vertical=buf.vertical
        )
        moved.poly = buf.poly + id_offset
        (out_v if moved.vertical else out_h).append(moved)
    return EdgeBufferPair(
        concat_buffers(out_v, vertical=True),
        concat_buffers(out_h, vertical=False),
        pair.num_polygons,
    )


def _map_edges(
    buf: EdgeBuffer, a: int, b: int, c: int, d: int, dx: int, dy: int, *, from_vertical: bool
) -> EdgeBuffer:
    # Axis-aligned linear parts are either diagonal (orientation preserved)
    # or anti-diagonal (vertical <-> horizontal). The interior normal
    # transforms with the linear map: vertical normals (s, 0) map to
    # (a s, c s), horizontal normals (0, s) to (b s, d s); exactly one
    # component is nonzero and its sign is the new interior sign.
    if from_vertical:
        if b == 0 and c == 0:
            fixed_factor, span_factor, fixed_off, span_off = a, d, dx, dy
            normal_factor, vertical = a, True
        else:
            fixed_factor, span_factor, fixed_off, span_off = c, b, dy, dx
            normal_factor, vertical = c, False
    else:
        if b == 0 and c == 0:
            fixed_factor, span_factor, fixed_off, span_off = d, a, dy, dx
            normal_factor, vertical = d, False
        else:
            fixed_factor, span_factor, fixed_off, span_off = b, c, dx, dy
            normal_factor, vertical = b, True
    fixed = fixed_factor * buf.fixed + fixed_off
    if span_factor >= 0:
        lo = span_factor * buf.lo + span_off
        hi = span_factor * buf.hi + span_off
    else:
        lo = span_factor * buf.hi + span_off
        hi = span_factor * buf.lo + span_off
    interior = buf.interior if normal_factor > 0 else -buf.interior
    return EdgeBuffer(vertical, fixed, lo, hi, interior, buf.poly)


def concat_buffers(buffers: List[EdgeBuffer], *, vertical: bool) -> EdgeBuffer:
    if not buffers:
        z = np.zeros(0, dtype=_INT)
        return EdgeBuffer(vertical, z, z, z, z, z)
    if any(x.segment is not None for x in buffers):
        segment = np.concatenate(
            [
                x.segment if x.segment is not None else np.zeros(len(x), dtype=_INT)
                for x in buffers
            ]
        )
    else:
        segment = None
    return EdgeBuffer(
        vertical,
        np.concatenate([x.fixed for x in buffers]),
        np.concatenate([x.lo for x in buffers]),
        np.concatenate([x.hi for x in buffers]),
        np.concatenate([x.interior for x in buffers]),
        np.concatenate([x.poly for x in buffers]),
        segment,
    )


def concat_segmented(pairs: List[EdgeBufferPair]) -> EdgeBufferPair:
    """Fuse per-row buffer pairs into one segmented pair: every edge tagged
    with its row index, polygon ids offset by a running flat-polygon counter."""
    parts_v: List[EdgeBuffer] = []
    parts_h: List[EdgeBuffer] = []
    offset = 0
    for index, pair in enumerate(pairs):
        for buf, parts in ((pair.vertical, parts_v), (pair.horizontal, parts_h)):
            if len(buf):
                parts.append(
                    EdgeBuffer(
                        buf.vertical,
                        buf.fixed,
                        buf.lo,
                        buf.hi,
                        buf.interior,
                        buf.poly + offset,
                        np.full(len(buf), index, dtype=_INT),
                    )
                )
        offset += pair.num_polygons
    return EdgeBufferPair(
        concat_buffers(parts_v, vertical=True),
        concat_buffers(parts_h, vertical=False),
        offset,
    )


class RecursiveEdgePacker:
    """Per-definition edge buffers bottom-up, memoised per cell."""

    def __init__(self, tree: HierarchyTree, layer: int) -> None:
        self.tree = tree
        self.layer = layer
        self._memo: Dict[str, EdgeBufferPair] = {}

    def buffer_of(self, cell_name: str) -> EdgeBufferPair:
        cached = self._memo.get(cell_name)
        if cached is not None:
            return cached
        cell = self.tree.layout.cell(cell_name)
        parts_v: List[EdgeBuffer] = []
        parts_h: List[EdgeBuffer] = []
        local = cell.polygons(self.layer)
        count = len(local)
        if local:
            packed = pack_edges(local)
            parts_v.append(packed["v"])
            parts_h.append(packed["h"])
        for ref in cell.references:
            if not self.tree.has_layer(ref.cell_name, self.layer):
                continue
            child = self.buffer_of(ref.cell_name)
            for placement in ref.placements():
                moved = transform_pair(child, placement, count)
                parts_v.append(moved.vertical)
                parts_h.append(moved.horizontal)
                count += child.num_polygons
        pair = EdgeBufferPair(
            concat_buffers([p for p in parts_v if len(p)], vertical=True),
            concat_buffers([p for p in parts_h if len(p)], vertical=False),
            count,
        )
        self._memo[cell_name] = pair
        return pair

    def instance_buffer(
        self, cell_name: str, placement: Transform, id_offset: int
    ) -> EdgeBufferPair:
        """One instance's flat buffer in the parent frame."""
        return transform_pair(self.buffer_of(cell_name), placement, id_offset)


def transform_rects(rects: np.ndarray, transform: Transform) -> np.ndarray:
    """Vectorised rect transform: map both corners, re-sort per axis."""
    if len(rects) == 0:
        return rects
    a, b, c, d = _int_matrix(transform)
    x1, y1, x2, y2 = rects[:, 0], rects[:, 1], rects[:, 2], rects[:, 3]
    cx1 = a * x1 + b * y1 + transform.dx
    cy1 = c * x1 + d * y1 + transform.dy
    cx2 = a * x2 + b * y2 + transform.dx
    cy2 = c * x2 + d * y2 + transform.dy
    return np.stack(
        [
            np.minimum(cx1, cx2),
            np.minimum(cy1, cy2),
            np.maximum(cx1, cx2),
            np.maximum(cy1, cy2),
        ],
        axis=1,
    )


class RecursiveRectPacker:
    """Per-definition MBR buffers, built bottom-up like the edge packer."""

    def __init__(self, tree: HierarchyTree, layer: int) -> None:
        self.tree = tree
        self.layer = layer
        self._memo: Dict[str, RectBuffer] = {}

    def buffer_of(self, cell_name: str) -> RectBuffer:
        cached = self._memo.get(cell_name)
        if cached is not None:
            return cached
        cell = self.tree.layout.cell(cell_name)
        parts: List[np.ndarray] = []
        local = cell.polygons(self.layer)
        all_rect = all(p.is_rectangle for p in local)
        if local:
            parts.append(np.asarray([tuple(p.mbr) for p in local], dtype=_INT))
        for ref in cell.references:
            if not self.tree.has_layer(ref.cell_name, self.layer):
                continue
            child = self.buffer_of(ref.cell_name)
            all_rect = all_rect and child.all_rect
            for placement in ref.placements():
                parts.append(transform_rects(child.rects, placement))
        if parts:
            buffer = RectBuffer(np.concatenate(parts, axis=0), all_rect)
        else:
            buffer = RectBuffer.empty()
        self._memo[cell_name] = buffer
        return buffer

    def instance_rects(self, cell_name: str, placement: Transform) -> RectBuffer:
        child = self.buffer_of(cell_name)
        return RectBuffer(transform_rects(child.rects, placement), child.all_rect)


def _local_polygon(packer, item: LevelItem) -> Polygon:
    """The top-cell polygon a top-level item indexes."""
    return packer.tree.top.rings(packer.layer).polygon(item.index)


def row_edge_buffers(
    row_items: Sequence[LevelItem], packer: RecursiveEdgePacker
) -> EdgeBufferPair:
    """One row's flat edge buffers: the top cell's own polygons packed
    directly, child instances through the per-definition buffers."""
    parts_v = []
    parts_h = []
    local_polys = [_local_polygon(packer, item) for item in row_items if item.index is not None]
    offset = 0
    if local_polys:
        packed = pack_edges(local_polys)
        parts_v.append(packed["v"])
        parts_h.append(packed["h"])
        offset = len(local_polys)
    for item in row_items:
        if item.index is not None:
            continue
        pair = packer.instance_buffer(item.cell_name, item.placement, offset)
        offset += pair.num_polygons
        if len(pair.vertical):
            parts_v.append(pair.vertical)
        if len(pair.horizontal):
            parts_h.append(pair.horizontal)
    return EdgeBufferPair(
        concat_buffers(parts_v, vertical=True),
        concat_buffers(parts_h, vertical=False),
        offset,
    )


def row_rect_buffer(row_items: Sequence[LevelItem], packer: RecursiveRectPacker) -> RectBuffer:
    parts = []
    all_rect = True
    local: List[Polygon] = []
    for item in row_items:
        if item.index is not None:
            local.append(_local_polygon(packer, item))
        else:
            buf = packer.instance_rects(item.cell_name, item.placement)
            all_rect = all_rect and buf.all_rect
            if len(buf):
                parts.append(buf.rects)
    if local:
        parts.insert(0, np.asarray([tuple(p.mbr) for p in local], dtype=_INT))
        all_rect = all_rect and all(p.is_rectangle for p in local)
    if parts:
        return RectBuffer(np.concatenate(parts, axis=0), all_rect)
    return RectBuffer.empty()


def definition_instances(
    tree: HierarchyTree, layer: int
) -> Tuple[List[Tuple[str, Sequence[Polygon]]], Dict[int, List[Transform]]]:
    """Unique checked definitions plus the transforms instantiating each; a
    magnified placement gets a definition of its own, already placed."""
    definitions: List[Tuple[str, Sequence[Polygon]]] = []
    def_index_of: Dict[str, int] = {}
    instances: Dict[int, List[Transform]] = {}
    for cell, transform in iter_instances(tree, layer=layer):
        polys = cell.polygons(layer)
        if not polys:
            continue
        if transform.magnification == 1:
            index = def_index_of.get(cell.name)
            if index is None:
                index = len(definitions)
                def_index_of[cell.name] = index
                definitions.append((cell.name, polys))
                instances[index] = []
            instances[index].append(transform)
        else:
            index = len(definitions)
            definitions.append(
                (f"{cell.name}@{transform}", [p.transformed(transform) for p in polys])
            )
            instances[index] = [IDENTITY]
    return definitions, instances

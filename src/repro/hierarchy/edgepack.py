"""Hierarchical device-buffer construction — the "hierarchical GPU" in the title.

The parallel mode must pack the edges of all relevant polygons into
flattened device arrays (paper §IV-E). A non-hierarchical checker (X-Check)
walks every *instance* polygon in host code; OpenDRC instead exploits the
hierarchy: each cell definition's edge buffer is packed exactly once, and an
instance's edges are produced by a *vectorised* transform of the
definition's arrays (translation adds offsets; mirrors and 90-degree
rotations permute/negate coordinate arrays; a vertical buffer under a
90-degree rotation becomes a horizontal buffer). Host-side preparation cost
thus scales with the number of cell *definitions* plus references, not with
the number of flat polygons.

Polygon ids stay globally unique across instantiation (child ids are offset
by a running flat-polygon counter) so same-polygon classification (width
pairs, notches) survives the flattening.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from ..geometry import Transform
from ..gpu.kernels import CornerBuffer, EdgeBuffer, pack_edges
from .tree import HierarchyTree

_INT = np.int64


@dataclasses.dataclass
class EdgeBufferPair:
    """Vertical + horizontal edge buffers plus the flat polygon count."""

    vertical: EdgeBuffer
    horizontal: EdgeBuffer
    num_polygons: int

    @classmethod
    def empty(cls) -> "EdgeBufferPair":
        z = np.zeros(0, dtype=_INT)
        return cls(EdgeBuffer(True, z, z, z, z, z), EdgeBuffer(False, z, z, z, z, z), 0)

    @property
    def num_edges(self) -> int:
        return len(self.vertical) + len(self.horizontal)


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
        if buf.vertical:
            # Points (x=fixed, y in [lo, hi]); interior normal (s, 0).
            moved = _map_edges(buf, a, b, c, d, transform.dx, transform.dy, from_vertical=True)
        else:
            moved = _map_edges(buf, a, b, c, d, transform.dx, transform.dy, from_vertical=False)
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


def _int_matrix(transform: Transform) -> Tuple[int, int, int, int]:
    mag = transform.magnification
    if mag != 1 and Fraction(mag).denominator != 1:
        raise GeometryError(
            "hierarchical edge packing requires integral magnification; "
            f"got {transform.magnification}"
        )
    a, b, c, d = transform._matrix
    return int(a), int(b), int(c), int(d)


def concat_buffers(buffers: List[EdgeBuffer], *, vertical: bool) -> EdgeBuffer:
    if not buffers:
        z = np.zeros(0, dtype=_INT)
        return EdgeBuffer(vertical, z, z, z, z, z)
    if len(buffers) == 1:
        return buffers[0]
    if any(x.segment is not None for x in buffers):
        # Buffers without an explicit segment default to segment 0.
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
    """Fuse per-row buffer pairs into one segmented pair (one launch's input).

    Every edge is tagged with its row index in ``segment``; polygon ids are
    offset by a running flat-polygon counter so they stay globally unique
    across the fused buffer (same-polygon classification — width pairs,
    notches — survives fusion).
    """
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


class HierarchicalEdgePacker:
    """Builds per-definition edge buffers bottom-up, memoised per cell.

    ``buffer_of(cell)`` returns the cell subtree's full flat edge buffer in
    local coordinates — built once per definition, no matter how many times
    the cell is instantiated.
    """

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

    def instance_buffer(self, cell_name: str, placement: Transform, id_offset: int) -> EdgeBufferPair:
        """One instance's flat buffer in the parent frame."""
        return transform_pair(self.buffer_of(cell_name), placement, id_offset)


class RectBuffer:
    """Per-definition polygon MBRs as an ``(n, 4)`` array.

    ``all_rect`` records whether every polygon *is* its MBR (a rectangle);
    only then may rectangle fast-path kernels (enclosure) use the buffer.
    """

    __slots__ = ("rects", "all_rect")

    def __init__(self, rects: np.ndarray, all_rect: bool) -> None:
        self.rects = rects
        self.all_rect = all_rect

    def __len__(self) -> int:
        return len(self.rects)

    @classmethod
    def empty(cls) -> "RectBuffer":
        return cls(np.zeros((0, 4), dtype=_INT), True)


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


def _all_rectangles(rings) -> bool:
    """``all(p.is_rectangle for p in rings.polygons())``, read off the buffer."""
    if np.any(np.diff(np.frombuffer(rings.offsets, dtype=_INT)) != 8):
        return False
    x0, y0, x1, y1, x2, y2, x3, y3 = np.frombuffer(rings.coords, dtype=_INT).reshape(-1, 8).T
    first_vertical = (x0 == x1) & (y1 == y2) & (x2 == x3) & (y3 == y0)
    first_horizontal = (y0 == y1) & (x1 == x2) & (y2 == y3) & (x3 == x0)
    return bool(np.all((first_vertical | first_horizontal) & (x0 != x2) & (y0 != y2)))


class HierarchicalRectPacker:
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
        all_rect = True
        rings = cell.rings(self.layer)
        if rings:
            # The cell's own MBR table, in place; np.concatenate below copies.
            parts.append(np.frombuffer(rings.mbrs, dtype=_INT).reshape(-1, 4))
            all_rect = _all_rectangles(rings)
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


# ---------------------------------------------------------------------------
# Pack-store codecs
#
# Stable array serialization of the buffer types this module builds, used by
# the persistent pack store (repro.core.packstore). Decoding is zero-copy:
# the returned buffers wrap whatever arrays (typically read-only memmap
# views) the store hands in.
# ---------------------------------------------------------------------------


def edge_pair_to_arrays(pair: EdgeBufferPair) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    arrays: Dict[str, np.ndarray] = {}
    meta: Dict[str, Any] = {"num_polygons": int(pair.num_polygons)}
    for prefix, buf in (("v", pair.vertical), ("h", pair.horizontal)):
        arrays[f"{prefix}_fixed"] = buf.fixed
        arrays[f"{prefix}_lo"] = buf.lo
        arrays[f"{prefix}_hi"] = buf.hi
        arrays[f"{prefix}_interior"] = buf.interior
        arrays[f"{prefix}_poly"] = buf.poly
        meta[f"{prefix}_segment"] = buf.segment is not None
        if buf.segment is not None:
            arrays[f"{prefix}_segment"] = buf.segment
    return arrays, meta


def edge_pair_from_arrays(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> EdgeBufferPair:
    def buf(prefix: str, vertical: bool) -> EdgeBuffer:
        segment = arrays[f"{prefix}_segment"] if meta[f"{prefix}_segment"] else None
        return EdgeBuffer(
            vertical,
            arrays[f"{prefix}_fixed"],
            arrays[f"{prefix}_lo"],
            arrays[f"{prefix}_hi"],
            arrays[f"{prefix}_interior"],
            arrays[f"{prefix}_poly"],
            segment,
        )

    return EdgeBufferPair(buf("v", True), buf("h", False), int(meta["num_polygons"]))


def corners_to_arrays(buf: CornerBuffer) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    arrays = {
        "x": buf.x,
        "y": buf.y,
        "qx": buf.qx,
        "qy": buf.qy,
        "poly": buf.poly,
    }
    if buf.segment is not None:
        arrays["segment"] = buf.segment
    return arrays, {"segment": buf.segment is not None}


def corners_from_arrays(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> CornerBuffer:
    return CornerBuffer(
        arrays["x"],
        arrays["y"],
        arrays["qx"],
        arrays["qy"],
        arrays["poly"],
        arrays["segment"] if meta["segment"] else None,
    )


def rect_rows_to_arrays(rows: Sequence[RectBuffer]) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    rects = (
        np.concatenate([row.rects for row in rows], axis=0)
        if rows
        else np.zeros((0, 4), dtype=_INT)
    )
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    return {"rects": rects, "offsets": offsets}, {
        "all_rect": [bool(row.all_rect) for row in rows]
    }


def rect_rows_from_arrays(arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> List[RectBuffer]:
    rects = arrays["rects"]
    offsets = arrays["offsets"]
    return [
        RectBuffer(rects[offsets[i] : offsets[i + 1]], bool(flag))
        for i, flag in enumerate(meta["all_rect"])
    ]

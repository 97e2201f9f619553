"""Hierarchical device-buffer construction — the "hierarchical GPU" in the title.

The parallel mode must pack the edges of all relevant polygons into
flattened device arrays (paper §IV-E). A non-hierarchical checker (X-Check)
walks every *instance* polygon in host code; OpenDRC instead exploits the
hierarchy, and here that is one :class:`InstanceTable` per plan:

* **walked once** — every cell holding geometry gets an integer array of
  its composed placements ``(a, b, c, d, dx, dy)`` under the root, each
  tagged with the root-level placement it sits under. The walk goes
  definition by definition (all placements of a cell composed with all of
  its references in one broadcast), so it costs array operations per
  *definition*, not per instance.
* **expanded per layer** — a definition's rings are read off its
  :class:`~repro.layout.cell.RingBuffer` as arrays (:class:`RingTable`:
  MBRs off the MBR table, edges and corners off ``coords``/``offsets``, no
  ``Polygon``) and mapped through *all* of its placements at once
  (``factor[:, None] * column[None, :] + offset[:, None]``). Mirrors and
  90-degree rotations permute/negate coordinate arrays, so a vertical edge
  under a 90-degree rotation comes out horizontal, and interior-normal
  signs follow the linear map.

Host-side preparation therefore scales with the number of cell
*definitions*, not with the number of flat polygons. Polygon ids stay
globally unique across instantiation (a running flat-polygon counter) so
same-polygon classification (width pairs, notches) survives the flattening.

Widths: a :class:`RingTable` holds a definition's coordinates as ``int32``,
which GDSII guarantees in each structure's own frame (a table built in
memory past that range stays ``int64``). Placed columns are computed in
``int64`` from the ``int64`` placements and stored in the width of the
:class:`~repro.gpu.kernels.Frame` the caller passes, as offsets from its
origin.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from ..geometry import Transform
from ..gpu.kernels import (
    INT32_MAX,
    TOP_FRAME,
    CornerBuffer,
    EdgeBuffer,
    Frame,
    edges_from_vertices,
    narrow_ids,
)
from ..layout.cell import Cell, RingBuffer
from .tree import HierarchyTree

_INT = np.int64


def _stored(values: np.ndarray) -> np.ndarray:
    """``int64`` ``values`` as ``int32`` when every one fits, else as they are."""
    if len(values) and not -INT32_MAX - 1 <= int(values.min()) <= int(values.max()) <= INT32_MAX:
        return values
    return values.astype(np.int32)


@dataclasses.dataclass
class EdgeBufferPair:
    """Vertical + horizontal edge buffers plus the flat polygon count."""

    vertical: EdgeBuffer
    horizontal: EdgeBuffer
    num_polygons: int

    @property
    def num_edges(self) -> int:
        return len(self.vertical) + len(self.horizontal)


class RectBuffer:
    """Polygon MBRs as an ``(n, 4)`` array.

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


@dataclasses.dataclass
class DefinitionBuffers:
    """Every checked definition of one layer, for the intra-polygon kernels.

    A *unit* is what the kernels see once: a definition in local
    coordinates, answering for all of its rigid placements, or — because a
    magnification keeps neither distances nor areas — one magnified
    placement's already-placed copy, answering for the identity. Rings of
    all units lie back to back (``counts[i]`` vertices each, clockwise);
    ``owner[i]`` is ring ``i``'s unit and ``placements[u]`` the ``(n, 6)``
    placements that carry unit ``u``'s results to root coordinates.
    """

    xs: np.ndarray
    ys: np.ndarray
    counts: np.ndarray
    mbrs: np.ndarray
    owner: np.ndarray
    placements: List[np.ndarray]


# ---------------------------------------------------------------------------
# Placements as integer rows (a, b, c, d, dx, dy): x' = a x + b y + dx,
# y' = c x + d y + dy. Axis-aligned, so either b == c == 0 or a == d == 0.
# ---------------------------------------------------------------------------

_IDENTITY = np.asarray([[1, 0, 0, 1, 0, 0]], dtype=_INT)


def _int_matrix(transform: Transform) -> Tuple[int, int, int, int]:
    mag = transform.magnification
    if mag != 1 and Fraction(mag).denominator != 1:
        raise GeometryError(
            "hierarchical edge packing requires integral magnification; "
            f"got {transform.magnification}"
        )
    a, b, c, d = transform._matrix
    return int(a), int(b), int(c), int(d)


def reference_placements(cell: Cell) -> Tuple[np.ndarray, List[str]]:
    """Every placement of every reference of ``cell`` as an ``(r, 6)`` array,
    in ``for ref in references: for placement in ref.placements()`` order,
    plus the referenced cell's name per row."""
    rows: List[Tuple[int, ...]] = []
    names: List[str] = []
    for ref in cell.references:
        t = ref.transform
        matrix = _int_matrix(t)
        offsets = ref.repetition.offsets() if ref.repetition else ((0, 0),)
        for ox, oy in offsets:
            rows.append(matrix + (t.dx + ox, t.dy + oy))
            names.append(ref.cell_name)
    return np.asarray(rows, dtype=_INT).reshape(-1, 6), names


def _columns(placements: np.ndarray) -> Iterator[np.ndarray]:
    """``a, b, c, d, dx, dy`` as ``(m, 1)`` columns, ready to broadcast."""
    return (placements[:, i, None] for i in range(6))


def place_rects(rects: np.ndarray, placements: np.ndarray) -> np.ndarray:
    """``rects`` (``(k, 4)``) under each of ``placements`` (``(m, 6)``), as
    ``(m * k, 4)``, placement-major: map both corners, re-sort per axis."""
    a, b, c, d, dx, dy = _columns(placements)
    x1, y1, x2, y2 = (rects[..., i] for i in range(4))
    cx1, cy1 = a * x1 + b * y1 + dx, c * x1 + d * y1 + dy
    cx2, cy2 = a * x2 + b * y2 + dx, c * x2 + d * y2 + dy
    return np.stack(
        [
            np.minimum(cx1, cx2),
            np.minimum(cy1, cy2),
            np.maximum(cx1, cx2),
            np.maximum(cy1, cy2),
        ],
        axis=-1,
    ).reshape(-1, 4)


def _place_edges(
    buf: EdgeBuffer, placements: np.ndarray, tags: Sequence[np.ndarray]
) -> Iterator[Tuple[bool, List[np.ndarray]]]:
    """One definition's edges of one orientation under all its placements.

    Yields ``(vertical, [fixed, lo, hi, interior, *tags])`` for the
    placements that keep the orientation and for those that swap it. The
    interior normal transforms with the linear map: a vertical normal
    ``(s, 0)`` maps to ``(a s, c s)``, a horizontal ``(0, s)`` to
    ``(b s, d s)``; exactly one component is nonzero — the one that scales
    ``fixed`` — and its sign is the new interior sign. ``tags`` are further
    ``(placements, edges)`` columns (polygon id, segment) cut the same way.
    """
    a, b, c, d, dx, dy = _columns(placements)
    keeps = b == 0  # diagonal linear part: orientation preserved
    if buf.vertical:
        fixed_factor, span_factor = np.where(keeps, a, c), np.where(keeps, d, b)
    else:
        fixed_factor, span_factor = np.where(keeps, d, b), np.where(keeps, a, c)
    to_vertical = keeps == buf.vertical
    fixed_offset, span_offset = np.where(to_vertical, dx, dy), np.where(to_vertical, dy, dx)
    fixed = fixed_factor * buf.fixed + fixed_offset
    end1 = span_factor * buf.lo + span_offset
    end2 = span_factor * buf.hi + span_offset
    columns = [
        fixed,
        np.minimum(end1, end2),
        np.maximum(end1, end2),
        np.sign(fixed_factor) * buf.interior,
        *tags,
    ]
    for vertical in (True, False):
        chosen = to_vertical[:, 0] == vertical
        if chosen.any():
            yield vertical, [column[chosen].ravel() for column in columns]


def _concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=_INT)


# ---------------------------------------------------------------------------
# One definition's rings on one layer, as arrays
# ---------------------------------------------------------------------------


class RingTable:
    """The rings of one (cell, layer) copied out of their ``RingBuffer``.

    Copied, not viewed: ``np.frombuffer`` over an ``array('q')`` pins it, and
    a later ``Cell.add_polygon`` would raise ``BufferError`` for as long as
    any plan kept the view alive.
    """

    def __init__(self, rings: RingBuffer) -> None:
        coords = _stored(np.array(rings.coords, dtype=_INT))
        self.xs, self.ys = coords[0::2], coords[1::2]
        self.counts = np.diff(np.array(rings.offsets, dtype=_INT)) // 2
        self.mbrs = _stored(np.array(rings.mbrs, dtype=_INT)).reshape(-1, 4)

    def __len__(self) -> int:
        return len(self.counts)

    @functools.cached_property
    def edges(self) -> Dict[str, EdgeBuffer]:
        """Local edges; ``poly`` is the ring index."""
        return edges_from_vertices(self.xs, self.ys, self.counts)

    @functools.cached_property
    def is_rect(self) -> np.ndarray:
        """``Polygon.is_rectangle`` of every ring, read off the coordinates."""
        flags = np.zeros(len(self), dtype=bool)
        four = np.flatnonzero(self.counts == 4)
        at = (np.cumsum(self.counts) - self.counts)[four, None] + np.arange(4)
        (x0, x1, x2, x3), (y0, y1, y2, y3) = self.xs[at].T, self.ys[at].T
        first_vertical = (x0 == x1) & (y1 == y2) & (x2 == x3) & (y3 == y0)
        first_horizontal = (y0 == y1) & (x1 == x2) & (y2 == y3) & (x3 == x0)
        flags[four] = (first_vertical | first_horizontal) & (x0 != x2) & (y0 != y2)
        return flags

    @functools.cached_property
    def corners(self) -> CornerBuffer:
        """Convex corners with exterior-quadrant signs, as
        :func:`repro.checks.corner.ring_corners` finds them; ``poly`` is
        the ring index."""
        starts = np.cumsum(self.counts) - self.counts
        index = np.arange(len(self.xs), dtype=_INT)
        nxt, prev = index + 1, index - 1
        nxt[starts + self.counts - 1] = starts
        prev[starts] = starts + self.counts - 1
        xs, ys = self.xs.astype(_INT), self.ys.astype(_INT)
        d1x, d1y = xs - xs[prev], ys - ys[prev]
        d2x, d2y = xs[nxt] - xs, ys[nxt] - ys
        # Clockwise rings: a right turn (convex corner) has cross < 0. The
        # exterior quadrant is opposite the sum of the two edges' interior
        # normals (d.y, -d.x).
        convex = np.flatnonzero(d1x * d2y - d1y * d2x < 0)
        return CornerBuffer(
            self.xs[convex],
            self.ys[convex],
            -np.sign(d1y + d2y)[convex].astype(np.int8),
            np.sign(d1x + d2x)[convex].astype(np.int8),
            np.repeat(np.arange(len(self), dtype=_INT), self.counts)[convex],
        )

    def placed(self, placement: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(xs, ys, counts, mbrs)`` under one placement, rings still
        clockwise: a mirroring placement reverses every ring (here by
        reversing the whole table), as ``Polygon.transformed`` re-orients."""
        a, b, c, d, dx, dy = placement.tolist()
        local_x, local_y = self.xs.astype(_INT), self.ys.astype(_INT)
        xs = _stored(a * local_x + b * local_y + dx)
        ys = _stored(c * local_x + d * local_y + dy)
        counts, mbrs = self.counts, _stored(place_rects(self.mbrs, placement[None, :]))
        if a * d - b * c < 0:
            xs, ys, counts, mbrs = xs[::-1], ys[::-1], counts[::-1], mbrs[::-1]
        return xs, ys, counts, mbrs


# ---------------------------------------------------------------------------
# The instance table
# ---------------------------------------------------------------------------


class InstanceTable:
    """Where every definition sits under ``root`` (default: the tree's top),
    and every device buffer of a layer expanded from that.

    *Items* are the root level's sweep participants on a layer, numbered as
    :func:`~repro.hierarchy.pruning.level_items` lists them: the root's own
    polygons, then each placement of each root reference whose subtree holds
    the layer. The row partition assigns rows to items; ``item_rows`` (row
    id per item) is how the buffers get their ``segment``.
    """

    def __init__(self, tree: HierarchyTree, root: Optional[str] = None) -> None:
        self.tree = tree
        self.root = tree.layout.cell(root) if root else tree.top
        self._rings: Dict[Tuple[str, int], RingTable] = {}

    # -- the walk -------------------------------------------------------------

    @functools.cached_property
    def _root_references(self) -> Tuple[np.ndarray, List[str]]:
        return reference_placements(self.root)

    @functools.cached_property
    def placements(self) -> Dict[str, np.ndarray]:
        """Cell name -> ``(n, 7)``: its composed placements under the root
        plus, last, the ordinal of the root-level placement each sits under
        (-1 for the root itself). Cells without local geometry are left out.
        """
        root_row = np.asarray([[1, 0, 0, 1, 0, 0, -1]], dtype=_INT)
        pending: Dict[str, List[np.ndarray]] = {self.root.name: [root_row]}
        table: Dict[str, np.ndarray] = {}
        for cell in reversed(self.tree.layout.topological_order()):
            parts = pending.pop(cell.name, None)
            if parts is None:  # not under the root
                continue
            mine = np.concatenate(parts)
            if cell.local_layers():
                table[cell.name] = mine
            if not cell.references:
                continue
            if cell is self.root:
                refs, names = self._root_references
            else:
                refs, names = reference_placements(cell)
            # Every placement of this cell composed with every reference.
            a, b, c, d, dx, dy = _columns(mine)
            ra, rb, rc, rd, rdx, rdy = refs.T
            ordinal = np.arange(len(refs)) if cell is self.root else mine[:, 6, None]
            composed = np.stack(
                np.broadcast_arrays(
                    a * ra + b * rc,
                    a * rb + b * rd,
                    c * ra + d * rc,
                    c * rb + d * rd,
                    a * rdx + b * rdy + dx,
                    c * rdx + d * rdy + dy,
                    ordinal,
                ),
                axis=-1,
            )
            rank = {name: index for index, name in enumerate(dict.fromkeys(names))}
            child = np.fromiter((rank[name] for name in names), dtype=_INT, count=len(names))
            for name, index in rank.items():
                pending.setdefault(name, []).append(
                    composed[:, child == index].reshape(-1, 7)
                )
        return table

    # -- items ----------------------------------------------------------------

    def _root_children(self, layer: int) -> np.ndarray:
        """Which root-level placements hold ``layer`` in their subtree."""
        names = self._root_references[1]
        has = {name: self.tree.has_layer(name, layer) for name in set(names)}
        return np.fromiter((has[name] for name in names), dtype=bool, count=len(names))

    def item_mbrs(self, layer: int) -> np.ndarray:
        """``(items, 4)`` MBRs of the root level's items. Needs no walk."""
        parts = []
        rings = self.root.rings(layer)
        if rings:
            parts.append(np.array(rings.mbrs, dtype=_INT).reshape(-1, 4))
        held = np.flatnonzero(self._root_children(layer))
        if len(held):
            refs, names = self._root_references
            child = np.asarray(
                [self.tree.layer_mbr(names[i], layer) for i in held], dtype=_INT
            )
            parts.append(place_rects(child[:, None, :], refs[held]))
        return np.concatenate(parts) if parts else np.zeros((0, 4), dtype=_INT)

    def _layer_cells(
        self, layer: int, item_rows: Optional[np.ndarray] = None, frame: Frame = TOP_FRAME
    ) -> Iterator[Tuple[RingTable, np.ndarray, np.ndarray, Callable]]:
        """Per definition holding ``layer``: its ring table, its placements
        (their offsets measured from ``frame``'s origin), the flat-polygon id
        of its ring 0 under each placement (``(m, 1)``, a running counter)
        and ``segment_of(ring indices)``, the ``(m, rings)`` row ids of those
        rings under each placement."""
        local = self.root.rings(layer)
        # Root placement ordinal -> item index (garbage where the layer is
        # not held: nothing of it sits under such a placement). Ordinal -1,
        # the root itself, reads the appended 0: its polygons are items
        # 0, 1, ... themselves.
        item_of = np.append(
            (len(local) if local else 0) + np.cumsum(self._root_children(layer)) - 1, 0
        )
        count = 0
        for name, placements in self.placements.items():
            rings = self.tree.layout.cell(name).rings(layer)
            if not rings:
                continue
            table = self._rings.get((name, layer))
            if table is None:
                table = self._rings[name, layer] = RingTable(rings)

            def segment_of(ring: np.ndarray, ordinal=placements[:, 6, None]) -> np.ndarray:
                return item_rows[item_of[ordinal] + (ordinal < 0) * ring]

            first = count + np.arange(len(placements), dtype=_INT)[:, None] * len(table)
            count += len(placements) * len(table)
            if frame.x or frame.y:
                placements = placements - np.asarray([0, 0, 0, 0, frame.x, frame.y, 0])
            yield table, placements, first, segment_of

    # -- buffers ----------------------------------------------------------------

    def rects(
        self, layer: int, item_rows: Optional[np.ndarray] = None, frame: Frame = TOP_FRAME
    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """Every flat polygon's MBR (in ``frame``), its row, and whether it is
        a rectangle."""
        rects, segment, is_rect = [], [], []
        for table, placements, _, segment_of in self._layer_cells(layer, item_rows, frame):
            rects.append(place_rects(table.mbrs, placements).astype(frame.dtype, copy=False))
            is_rect.append(np.tile(table.is_rect, len(placements)))
            if item_rows is not None:
                segment.append(segment_of(np.arange(len(table), dtype=_INT)).ravel())
        return (
            np.concatenate(rects) if rects else np.zeros((0, 4), dtype=_INT),
            None if item_rows is None else _concat(segment),
            np.concatenate(is_rect) if is_rect else np.zeros(0, dtype=bool),
        )

    def rect_rows(
        self, layer: int, item_rows: np.ndarray, num_rows: int, frame: Frame = TOP_FRAME
    ) -> List[RectBuffer]:
        """:meth:`rects` cut into one :class:`RectBuffer` per row."""
        rects, segment, is_rect = self.rects(layer, item_rows, frame)
        rects = rects[np.argsort(segment, kind="stable")]
        ends = np.cumsum(np.bincount(segment, minlength=num_rows))
        rectilinear = np.bincount(segment[~is_rect], minlength=num_rows)
        return [
            RectBuffer(rects[end - count : end], not bad)
            for end, count, bad in zip(
                ends.tolist(), np.diff(ends, prepend=0).tolist(), rectilinear.tolist()
            )
        ]

    def edges(
        self, layer: int, item_rows: Optional[np.ndarray] = None, frame: Frame = TOP_FRAME
    ) -> EdgeBufferPair:
        """Every flat polygon's edges (in ``frame``); with ``item_rows``,
        segmented by row."""
        parts: Dict[bool, List[List[np.ndarray]]] = {True: [], False: []}
        count = 0
        for table, placements, first, segment_of in self._layer_cells(layer, item_rows, frame):
            count += len(placements) * len(table)
            for buf in table.edges.values():
                if not len(buf):
                    continue
                tags = [narrow_ids(first + buf.poly, count)]
                if item_rows is not None:
                    tags.append(segment_of(buf.poly))
                for vertical, (fixed, lo, hi, interior, *rest) in _place_edges(
                    buf, placements, tags
                ):
                    parts[vertical].append(
                        [
                            *(c.astype(frame.dtype, copy=False) for c in (fixed, lo, hi)),
                            interior.astype(np.int8),
                            *rest,
                        ]
                    )
        # fixed, lo, hi, interior, poly and, with rows, segment.
        empty = [()] * (5 if item_rows is None else 6)
        vertical, horizontal = (
            EdgeBuffer(flag, *map(_concat, zip(*parts[flag]) if parts[flag] else empty))
            for flag in (True, False)
        )
        return EdgeBufferPair(vertical, horizontal, count)

    def corners(self, layer: int, item_rows: np.ndarray, frame: Frame = TOP_FRAME) -> CornerBuffer:
        """Every flat polygon's convex corners (in ``frame``), segmented by row."""
        parts: List[List[np.ndarray]] = []
        for table, placements, first, segment_of in self._layer_cells(layer, item_rows, frame):
            local = table.corners
            if not len(local):
                continue
            a, b, c, d, dx, dy = _columns(placements)
            columns = (
                (a * local.x + b * local.y + dx).astype(frame.dtype, copy=False),
                (c * local.x + d * local.y + dy).astype(frame.dtype, copy=False),
                np.sign(a * local.qx + b * local.qy).astype(np.int8),
                np.sign(c * local.qx + d * local.qy).astype(np.int8),
                narrow_ids(first + local.poly, int(first[-1, 0]) + len(table)),
                segment_of(local.poly),
            )
            parts.append([column.ravel() for column in columns])
        if not parts:
            return CornerBuffer(*[np.zeros(0, dtype=_INT)] * 6)
        return CornerBuffer(*(np.concatenate(column) for column in zip(*parts)))

    def definitions(self, layer: int) -> DefinitionBuffers:
        """The layer's checked units (see :class:`DefinitionBuffers`)."""
        units: List[Tuple[np.ndarray, ...]] = []  # (xs, ys, counts, mbrs) each
        placements: List[np.ndarray] = []
        for table, where, _, _ in self._layer_cells(layer):
            rigid = np.abs(where[:, :4]).sum(axis=1) == 2  # magnification 1
            if rigid.any():
                units.append((table.xs, table.ys, table.counts, table.mbrs))
                placements.append(where[rigid, :6])
            for placement in where[~rigid, :6]:
                units.append(table.placed(placement))
                placements.append(_IDENTITY)
        return DefinitionBuffers(
            _concat([unit[0] for unit in units]),
            _concat([unit[1] for unit in units]),
            _concat([unit[2] for unit in units]),
            np.concatenate([unit[3] for unit in units]) if units else np.zeros((0, 4), dtype=_INT),
            np.repeat(np.arange(len(units), dtype=_INT), [len(unit[2]) for unit in units]),
            placements,
        )


"""Conversions between the GDSII stream model and the layout database.

:class:`LayoutSink` turns GDSII structures and elements into cells (converting
PATH elements to their outline polygons, since DRC operates on filled
geometry) — fed by the stream reader directly, or by ``layout_from_gdsii``
from a parsed library — and ``gdsii_from_layout`` serializes a layout back,
so that workload layouts can be persisted as genuine GDSII files and re-read.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import compress
from operator import eq, gt, not_
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import GdsiiError
from ..gdsii.model import (
    GdsAref,
    GdsBoundary,
    GdsLibrary,
    GdsPath,
    GdsSref,
    GdsStrans,
    GdsStructure,
    magnification_scalar,
    strans_angle_to_rotation,
)
from ..gdsii.reader import REFERENCE_KEY, source_token
from ..geometry import Point, Polygon, Transform
from .cell import Cell, CellReference, Repetition
from .library import Layout


def layout_from_gdsii(library: GdsLibrary) -> Layout:
    """Build a hierarchical layout database from a parsed GDSII library."""
    sink = LayoutSink()
    sink.begin_library(
        library.name, library.user_unit, library.meters_per_unit, library.timestamp
    )
    for structure in library.structures:
        sink.begin_structure(structure.name, structure.timestamp)
        for element in structure.elements:
            if isinstance(element, GdsBoundary):
                flat = [c for point in element.xy for c in point]
                sink.boundary(element.layer, element.datatype, flat, element.properties)
            else:
                sink.element(element)
    return sink.finish()


class StructureSource:
    """Where a cell read from a stream came from, and how its elements fall.

    ``data`` is the whole stream and ``data[start:stop]`` the structure, its
    STRNAME record through ENDSTR. ``index`` holds one ``(mark, key,
    count)`` triple per element or run of rectangles the decode noted,
    ``mark`` counted from ``start``: the first marks where the elements
    begin (count 0), each next one that the bytes up to it added ``count``
    rings on layer ``key``, or ``count`` references if ``key`` is
    :data:`~repro.gdsii.reader.REFERENCE_KEY` (0 for a TEXT, which is
    noted so that every element begins at the mark before it). Only a run
    adds more than one, and a run is 64 bytes an element, so an element
    boundary falls every 64 bytes inside it too: the index knows every
    element boundary while a cold read notes only one triple per run. A boundary is named
    ``(i, k)``: triple ``i``'s mark plus ``k`` rectangles of the run that
    ends at triple ``i + 1``. ``index`` is never mutated, so a version
    whose structure did not move shares it.
    """

    __slots__ = ("data", "start", "stop", "index")

    def __init__(self, data: bytes, start: int, stop: int, index: array) -> None:
        self.data, self.start, self.stop, self.index = data, start, stop, index

    def floor(self, offset: int) -> Tuple[int, int]:
        """The last element boundary at or before ``offset`` (counted from
        ``start``); ``i`` is -1 if there is none."""
        index = self.index
        i = bisect_right(index[0::3], offset) - 1
        if i < 0 or 3 * i + 3 == len(index) or index[3 * i + 5] < 2:
            return i, 0
        return i, (offset - index[3 * i]) >> 6

    def offset(self, i: int, k: int) -> int:
        """Boundary ``(i, k)``, counted from ``start``."""
        return self.index[3 * i] + (k << 6)

    def ceiling(self, offset: int) -> Optional[Tuple[int, int]]:
        """The first element boundary at or after ``offset`` (counted from
        ``start``, at or past the first boundary); None past the last."""
        i, k = self.floor(offset)
        if self.offset(i, k) == offset:
            return i, k
        if 3 * i + 3 == len(self.index):
            return None
        return (i, k + 1) if k + 1 < self.index[3 * i + 5] else (i + 1, 0)

    def tally(self, i: int, k: int) -> Dict[int, int]:
        """Key -> how many rings (or references) the elements before
        boundary ``(i, k)`` added."""
        index = self.index
        counts: Dict[int, int] = {}
        for key, count in zip(index[4 : 3 * i + 3 : 3], index[5 : 3 * i + 3 : 3]):
            counts[key] = counts.get(key, 0) + count
        if k:
            key = index[3 * i + 4]
            counts[key] = counts.get(key, 0) + k
        return counts

    def head(self, i: int, k: int) -> array:
        """The triples of the elements before boundary ``(i, k)``."""
        head = self.index[: 3 * i + 3]
        if k:
            head.extend((self.offset(i, k), self.index[3 * i + 4], k))
        return head

    def tail(self, i: int, k: int, moved: int) -> array:
        """The triples of the elements after boundary ``(i, k)``, each mark
        ``moved`` on."""
        tail = self.index[3 * i + 3 :]
        if k:
            tail[2] -= k
        tail[0::3] = array("q", [mark + moved for mark in tail[0::3]])
        return tail


class LayoutSink:
    """Turns GDSII structures and elements into cells, as they arrive.

    The one element -> cell conversion: :func:`repro.gdsii.reader.walk_stream`
    feeds it straight from the stream bytes, :func:`layout_from_gdsii` from a
    :class:`GdsLibrary`. Boundaries go into the cell's packed ring buffers
    as coordinates; PATH elements become their outline polygons, since DRC
    operates on filled geometry.

    Fed by the walk, every structure it reads is stamped with its source
    token and :class:`StructureSource`. Given the layout of a previous
    version, a structure is spliced from the cell of that name while the
    cell's token holds (:meth:`resume`): its head and tail are copied from
    the cell as far as the bytes are those the cell was read from, and only
    the elements in between are decoded.
    """

    def __init__(self, previous: Optional[Layout] = None) -> None:
        self._previous = previous.cells if previous is not None else {}
        self._suffix = None, 0  # (a previous stream, the bytes it ends alike with this one)

    def begin_library(self, name, user_unit, meters_per_unit, timestamp) -> None:
        self.layout = Layout(name, meters_per_unit=meters_per_unit, user_unit=user_unit)

    def begin_structure(self, name: str, timestamp) -> None:
        self._cell = self.layout.new_cell(name)

    def resume(self, data: bytes, start: int, body: int) -> Tuple[int, Optional[int]]:
        """Copy the head of the structure begun last from the previous
        version's cell of that name; where to decode from, and where the
        decode may stop because the rest is that cell's tail (or None).

        The head is the cell's elements up to the last element boundary
        within the bytes both structures begin with. The tail begins at the
        cell's first boundary, past the head, from which on the new stream
        holds the cell's bytes through ENDSTR, at a known shift: when the
        whole structure is equal, the head's end; otherwise the first at or
        past where the two streams end alike. The walk decides: the tail is
        taken only if the decode ends an element there, and everything after
        is then bytes the cell was read from, in the grammar state they were
        read in. An element that passes over it is decoded on to ENDSTR.
        """
        self._middle = array("q")
        self.note: Callable = self._middle.extend
        old = self._previous.get(self._cell.name)
        source = old.source if old is not None else None
        if source is not None:
            length = source.stop - source.start
            same = _common_prefix(data, start, source.data, source.start, length)
            head = source.floor(same)
        if source is None or head[0] < 0:
            self._head = array("q", (body - start, 0, 0))
            return body, None
        _copy(old, self._cell, source, None, None if same == length else head)
        self._head = source.head(*head)
        resume = source.offset(*head)
        if same == length:
            lo, shift = 0, start - source.start
        else:  # from lo on, the old stream's bytes are the new one's shift further on
            shift = len(data) - len(source.data)
            if self._suffix[0] is not source.data:  # once per read, not per structure
                self._suffix = source.data, _common_suffix(data, source.data)
            lo = len(source.data) - self._suffix[1] - source.start
        moved = source.start + shift  # an old offset plus this is its new one
        # The tail starts past the head, and past where the walk starts in
        # the new stream.
        tail = source.ceiling(max(lo, resume, start + resume - moved))
        if tail is None:
            return start + resume, None
        self._splice = old, source, tail, shift, old.source_token if same == length else None
        return start + resume, moved + source.offset(*tail)

    def end_structure(self, data: bytes, start: int, offset: int, stopped: bool) -> int:
        """Copy the previous cell's tail if the decode stopped at one, and
        stamp the cell; the offset just past ENDSTR."""
        cell = self._cell
        middle = self._middle
        middle[0::3] = array("q", [mark - start for mark in middle[0::3]])
        index = self._head + middle
        token = None
        if stopped:
            old, source, tail, shift, token = self._splice
            if token is None:
                _copy(old, cell, source, tail, None)
                index += source.tail(*tail, source.start + shift - start)
            else:  # the cell's own bytes, element for element: all copied
                index = source.index
            offset = source.stop + shift
        source = StructureSource(data, start, offset, index)
        cell.stamp(token or source_token(data, start, offset), source)
        return offset

    def boundary(self, layer: int, datatype: int, flat, properties) -> None:
        """Normalise one ring and append it to the (cell, layer) buffer.

        A 4-point ring whose edges alternate between the axes, with two
        distinct x and two distinct y values, is exactly a ring the
        validating constructor stores unchanged but for orientation: nothing
        to merge (every corner turns), four distinct vertices, no zero-length
        or diagonal edge, non-zero area. Those are written as coordinates,
        no object built; every other ring goes through the constructor, so
        it accepts and rejects what it always did.
        """
        name = properties.get(1, "") if properties else ""
        if len(flat) == 8:
            x0, y0, x1, y1, x2, y2, x3, y3 = flat
            if (
                (x0 == x1 and y1 == y2 and x2 == x3 and y3 == y0)
                or (y0 == y1 and x1 == x2 and y2 == y3 and x3 == x0)
            ) and x0 != x2 and y0 != y2:
                # Twice the signed Shoelace area; positive is counter-clockwise.
                if (x0 - x2) * (y1 - y3) - (x1 - x3) * (y0 - y2) > 0:
                    flat = (x3, y3, x2, y2, x1, y1, x0, y0)
                xlo, xhi = (x0, x2) if x0 < x2 else (x2, x0)
                ylo, yhi = (y0, y2) if y0 < y2 else (y2, y0)
                self._cell.ring_buffer(layer).append_ring(flat, (xlo, ylo, xhi, yhi), name)
                return
        points = [Point(x, y) for x, y in zip(flat[0::2], flat[1::2])]
        self._cell.add_polygon(layer, Polygon(points, name=name))

    def rectangles(self, layer: int, words: array) -> None:
        """Append a run of canonical rectangles, column by column.

        Column ``k`` of the run is ``words[5 + k::16]``: ``x0`` of every
        ring, then ``y0`` ... ``y3``. A ring with ``x1 == x0``, ``y2 == y1``,
        ``x3 == x2``, ``y3 == y0``, ``x2 > x0`` and ``y1 > y0`` is drawn
        clockwise from its lower-left corner, which :meth:`boundary` stores
        unchanged: those go into the buffer in bulk, their MBR
        ``(x0, y0, x2, y1)``. Any other ring goes through :meth:`boundary`
        alone, in its place in the run.
        """
        x0, y0, x1, y1, x2, y2, x3, y3 = (words[k::16] for k in range(5, 13))
        count = len(x0)
        rejected: List[int] = []
        if not (
            x1 == x0 and y2 == y1 and x3 == x2 and y3 == y0
            and all(map(gt, x2, x0)) and all(map(gt, y1, y0))
        ):  # fmt: skip
            fits = zip(
                map(eq, x1, x0), map(eq, y2, y1), map(eq, x3, x2), map(eq, y3, y0),
                map(gt, x2, x0), map(gt, y1, y0),
            )  # fmt: skip
            rejected = list(compress(range(count), map(not_, map(all, fits))))
        box = array("i", bytes(16 * count))
        box[0::4], box[1::4], box[2::4], box[3::4] = x0, y0, x2, y1
        mbrs = _widened(box)
        rings = self._cell.ring_buffer(layer)
        start = 0
        for index in rejected + [count]:
            if start < index:
                rings.append_rectangles(mbrs[4 * start : 4 * index])
            if index < count:
                # The layout keeps no datatype.
                self.boundary(layer, 0, tuple(words[16 * index + 5 : 16 * index + 13]), {})
            start = index + 1

    def element(self, element) -> None:
        cell = self._cell
        if isinstance(element, GdsSref):
            cell.add_reference(
                CellReference(element.sname, _transform_from_strans(element))
            )
        elif isinstance(element, GdsPath):
            polygon = path_outline(element.xy, element.width)
            polygon.name = element.properties.get(1, "")
            cell.add_polygon(element.layer, polygon)
        elif isinstance(element, GdsAref):
            cell.add_reference(_reference_from_aref(element))
        else:
            raise GdsiiError(f"unsupported element {type(element).__name__}")

    def finish(self) -> Layout:
        cells = self.layout.cells
        for cell, ref in self.layout.iter_references():
            if ref.cell_name not in cells:
                raise GdsiiError(
                    f"structure {cell.name!r} references undefined structure "
                    f"{ref.cell_name!r}"
                )
        self.layout.validate()
        return self.layout


#: Byte -> the byte that extends its sign: 0x00 below 0x80, 0xFF from it on.
_SIGN_FILL = bytes(0xFF if byte & 0x80 else 0 for byte in range(256))
_LITTLE_ENDIAN = sys.byteorder == "little"


def _widened(values: array) -> array:
    """``array("q", values)`` for an ``array("i")``, with no Python int per
    value: each int32's bytes become the low half of an int64, and its top
    byte, translated through :data:`_SIGN_FILL`, every byte of the high half."""
    narrow = values.tobytes()
    wide = bytearray(2 * len(narrow))
    low, top = (0, 3) if _LITTLE_ENDIAN else (4, 0)  # low half's offset, top byte
    fill = narrow[top::4].translate(_SIGN_FILL)
    for k in range(4):
        wide[low + k :: 8] = narrow[k::4]
        wide[4 - low + k :: 8] = fill
    return array("q", wide)


def _copy(old: Cell, cell: Cell, source: StructureSource, since, until) -> None:
    """Append to ``cell`` what the elements of ``old`` from boundary ``since``
    (``None``: the first) up to boundary ``until`` (``None``: the last) added."""
    skip = source.tally(*since) if since is not None else {}
    end = source.tally(*until) if until is not None else None
    for key in old.local_layers():
        rings = old.rings(key)
        lo, hi = skip.get(key, 0), len(rings) if end is None else end.get(key, 0)
        if lo < hi:
            cell.ring_buffer(key).extend(rings, lo, hi)
    lo = skip.get(REFERENCE_KEY, 0)
    hi = len(old.references) if end is None else end.get(REFERENCE_KEY, 0)
    cell.references += old.references[lo:hi]


def _common_prefix(data: bytes, start: int, old: bytes, old_start: int, limit: int) -> int:
    """How many bytes, up to ``limit``, ``data`` from ``start`` and ``old``
    from ``old_start`` begin with alike."""
    view = memoryview(old)

    def alike(done: int, size: int) -> bool:
        return data.startswith(view[old_start + done : old_start + done + size], start + done)

    return _matching(alike, min(limit, len(data) - start))


def _common_suffix(data: bytes, old: bytes) -> int:
    """How many bytes ``data`` and ``old`` end with alike."""
    view, end, old_end = memoryview(old), len(data), len(old)

    def alike(done: int, size: int) -> bool:
        return data.startswith(view[old_end - done - size : old_end - done], end - done - size)

    return _matching(alike, min(end, old_end))


def _matching(alike: Callable[[int, int], bool], limit: int) -> int:
    """The largest ``n <= limit`` with ``alike(0, n)``, where ``alike(done,
    size)`` compares the ``size`` bytes after the first ``done``: chunks
    doubling from 4 KiB while they match, then a bisection of the first
    chunk that does not. Each call is one ``memcmp``, so the bytes compared
    stay within a small multiple of the answer."""
    done, size = 0, 4096
    while done < limit:
        size = min(size, limit - done)
        if not alike(done, size):
            break
        done += size
        size <<= 1
    else:
        return done
    while size > 1:  # the first difference is within ``size`` bytes after ``done``
        half = size >> 1
        if alike(done, half):
            done, size = done + half, size - half
        else:
            size = half
    return done


def gdsii_from_layout(layout: Layout) -> GdsLibrary:
    """Serialize a layout database back to the raw GDSII model."""
    layout.validate()
    library = GdsLibrary(
        name=layout.name,
        user_unit=layout.user_unit,
        meters_per_unit=layout.meters_per_unit,
    )
    # Children-first ordering keeps references resolvable by simple readers.
    for cell in layout.topological_order():
        structure = GdsStructure(name=cell.name)
        for layer in cell.local_layers():
            rings = cell.rings(layer)
            coords, offsets = rings.coords, rings.offsets
            for index, (start, stop) in enumerate(zip(offsets, offsets[1:])):
                name = rings.names.get(index)
                structure.elements.append(
                    GdsBoundary(
                        layer=layer,
                        datatype=0,
                        xy=list(zip(coords[start:stop:2], coords[start + 1 : stop : 2])),
                        properties={1: name} if name else {},
                    )
                )
        for ref in cell.references:
            structure.elements.append(_element_from_reference(ref))
        library.structures.append(structure)
    return library


def path_outline(xy: List[Tuple[int, int]], width: int) -> Polygon:
    """Outline polygon of a rectilinear PATH with flush (pathtype 0) ends.

    Supports any axis-parallel polyline with 90-degree turns (square miter
    joins): the left side is traced forward, the right side backward, and
    endpoints are capped flush. Every segment must be at least ``width``
    long so the outline stays a simple polygon; collinear runs are merged.
    """
    if width <= 0:
        raise GdsiiError(f"PATH requires a positive width, got {width}")
    half = width // 2
    if 2 * half != width:
        raise GdsiiError(f"odd PATH width {width} is off the manufacturing grid")

    points = _merge_collinear_waypoints(xy)
    if len(points) < 2:
        raise GdsiiError(f"PATH needs at least 2 distinct points, got {xy}")

    directions: List[Tuple[int, int]] = []
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x1 == x2 and y1 != y2:
            directions.append((0, 1 if y2 > y1 else -1))
        elif y1 == y2 and x1 != x2:
            directions.append((1 if x2 > x1 else -1, 0))
        else:
            raise GdsiiError(f"non-rectilinear or degenerate PATH segment in {xy}")
        if abs(x2 - x1) + abs(y2 - y1) < width and len(points) > 2:
            raise GdsiiError(
                f"PATH segment shorter than its width ({width}) in {xy}; "
                "the outline would self-intersect"
            )

    def side(sign: int) -> List[Tuple[int, int]]:
        """Offset waypoints on one side (+1 left of travel, -1 right)."""
        out: List[Tuple[int, int]] = []
        # Left normal of direction (dx, dy) is (-dy, dx).
        first = directions[0]
        out.append(
            (
                points[0][0] - sign * first[1] * half,
                points[0][1] + sign * first[0] * half,
            )
        )
        for i in range(1, len(points) - 1):
            before = directions[i - 1]
            after = directions[i]
            if before[0] == -after[0] and before[1] == -after[1]:
                raise GdsiiError(f"PATH doubles back on itself at {points[i]}")
            # Square miter: sum of both segments' normal offsets.
            nx = -sign * (before[1] + after[1]) * half
            ny = sign * (before[0] + after[0]) * half
            out.append((points[i][0] + nx, points[i][1] + ny))
        last = directions[-1]
        out.append(
            (
                points[-1][0] - sign * last[1] * half,
                points[-1][1] + sign * last[0] * half,
            )
        )
        return out

    outline = side(+1) + list(reversed(side(-1)))
    return Polygon(outline)


def _merge_collinear_waypoints(xy: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    points = [xy[0]]
    for p in xy[1:]:
        if p != points[-1]:
            points.append(p)
    merged = [points[0]]
    for i in range(1, len(points) - 1):
        prev, cur, nxt = merged[-1], points[i], points[i + 1]
        d1 = (cur[0] - prev[0], cur[1] - prev[1])
        d2 = (nxt[0] - cur[0], nxt[1] - cur[1])
        # Drop only straight-through waypoints (same direction of travel);
        # reversals must survive so they can be rejected explicitly.
        straight = d1[0] * d2[1] == d1[1] * d2[0] and (
            d1[0] * d2[0] > 0 or d1[1] * d2[1] > 0
        )
        if not straight:
            merged.append(cur)
    merged.append(points[-1])
    return merged


def _transform_from_strans(element) -> Transform:
    strans: GdsStrans = element.strans
    return Transform(
        dx=element.origin[0],
        dy=element.origin[1],
        rotation=strans_angle_to_rotation(strans.angle),
        mirror_x=strans.mirror_x,
        magnification=magnification_scalar(strans.magnification),
    )


def _reference_from_aref(element: GdsAref) -> CellReference:
    repetition = Repetition(
        columns=element.columns,
        rows=element.rows,
        column_step=element.column_step,
        row_step=element.row_step,
    )
    return CellReference(element.sname, _transform_from_strans(element), repetition)


def _element_from_reference(ref: CellReference):
    strans = GdsStrans(
        mirror_x=ref.transform.mirror_x,
        magnification=float(ref.transform.magnification),
        angle=float(ref.transform.rotation),
    )
    origin = (ref.transform.dx, ref.transform.dy)
    if ref.repetition is None:
        return GdsSref(sname=ref.cell_name, origin=origin, strans=strans)
    rep = ref.repetition
    col_corner = (
        origin[0] + rep.columns * rep.column_step[0],
        origin[1] + rep.columns * rep.column_step[1],
    )
    row_corner = (
        origin[0] + rep.rows * rep.row_step[0],
        origin[1] + rep.rows * rep.row_step[1],
    )
    return GdsAref(
        sname=ref.cell_name,
        columns=rep.columns,
        rows=rep.rows,
        xy=[origin, col_corner, row_corner],
        strans=strans,
    )

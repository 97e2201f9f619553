"""Conversions between the GDSII stream model and the layout database.

:class:`LayoutSink` turns GDSII structures and elements into cells (converting
PATH elements to their outline polygons, since DRC operates on filled
geometry) — fed by the stream reader directly, or by ``layout_from_gdsii``
from a parsed library — and ``gdsii_from_layout`` serializes a layout back,
so that workload layouts can be persisted as genuine GDSII files and re-read.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
from ..gdsii.reader import source_token
from ..geometry import Point, Polygon, Transform
from .cell import CellReference, Repetition, SourceToken
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


class LayoutSink:
    """Turns GDSII structures and elements into cells, as they arrive.

    The one element -> cell conversion: :func:`repro.gdsii.reader.walk_stream`
    feeds it straight from the stream bytes, :func:`layout_from_gdsii` from a
    :class:`GdsLibrary`. Boundaries go into the cell's packed ring buffers
    as coordinates; PATH elements become their outline polygons, since DRC
    operates on filled geometry.

    Fed by the walk, every structure it decodes is stamped with its source
    token; given the layout of a previous version, a structure whose bytes
    a cell of that layout was read from is copied instead (:meth:`carry_over`).
    """

    def __init__(self, previous: Optional[Layout] = None) -> None:
        self._previous = previous.cells if previous is not None else {}
        #: ``(start, token)`` of bytes a failed :meth:`carry_over` hashed.
        self._tried: Optional[Tuple[int, SourceToken]] = None

    def begin_library(self, name, user_unit, meters_per_unit, timestamp) -> None:
        self.layout = Layout(name, meters_per_unit=meters_per_unit, user_unit=user_unit)

    def begin_structure(self, name: str, timestamp) -> None:
        self._cell = self.layout.new_cell(name)

    def carry_over(self, data: bytes, start: int) -> int:
        """Copy the structure whose STRNAME record starts at ``start`` from
        the previous version's cell of that name, if that cell holds what
        these very bytes decode to: their end offset, or 0 to decode them."""
        self._tried = None
        old = self._previous.get(self._cell.name)
        token = old.source_token if old is not None else None
        if token is None or start + token[0] > len(data):
            return 0
        found = source_token(data, start, start + token[0])
        if found != token:
            self._tried = start, found
            return 0
        self._cell.copy_content(old)
        self._cell.stamp(token)
        return start + token[0]

    def end_structure(self, data: bytes, start: int, stop: int) -> None:
        """Stamp the structure just decoded (an edit that kept the structure's
        length was hashed by :meth:`carry_over` already)."""
        tried = self._tried
        if tried is not None and tried[0] == start and tried[1][0] == stop - start:
            self._cell.stamp(tried[1])
        else:
            self._cell.stamp(source_token(data, start, stop))

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

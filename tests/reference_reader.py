"""The record-by-record GDSII read, kept as the reference for the fused one.

``repro.gdsii.reader`` takes a run of canonical rectangles with one pattern
match and hands it to the sink as one array, which writes the rectangles
into a cell's ring buffers column by column; any other canonical BOUNDARY is
one header unpack, one coordinate unpack and one ENDEL compare. This module
is the reader as it was before either: every record stepped onto with
``RecordCursor.advance``, every BOUNDARY ring through the validating
``Polygon`` constructor, the result kept as plain tuples and lists — nothing
of ``RingBuffer`` on this side. PATH / SREF / AREF / TEXT records are read
with the reader's own helpers, which the fused decode does not touch.

:func:`checked_read_layout` is ``read_layout_bytes`` held to it: the same
layout (cell by cell: layers, ring vertices, names, references) or the same
exception, message included, and ring buffers whose offsets and MBR table
are the ones the reference rings imply.
"""

from itertools import accumulate

from repro.errors import GdsiiError, LayoutError, ReproError
from repro.gdsii import GdsAref, GdsBoundary, GdsPath, read_layout_bytes
from repro.gdsii import reader as _reader
from repro.gdsii.model import magnification_scalar, strans_angle_to_rotation
from repro.gdsii.records import RecordCursor, RecordType
from repro.geometry import Point, Polygon, Transform
from repro.layout import Layout, path_outline
from repro.layout.cell import CellReference, Repetition

_T = RecordType


def snapshot(layout):
    """Everything the engine can see of a layout, through the public API."""
    return (
        (layout.name, layout.user_unit, layout.meters_per_unit),
        [
            (
                name,
                [
                    (
                        layer,
                        [(polygon.vertices, polygon.name) for polygon in cell.polygons(layer)],
                    )
                    for layer in cell.local_layers()
                ],
                list(cell.references),
            )
            for name, cell in layout.cells.items()
        ],
    )


class _ReferenceSink:
    """Element -> plain data, raising what the layout sink raises, where it does."""

    def begin_library(self, name, user_unit, meters_per_unit, timestamp):
        self.header = (name, user_unit, meters_per_unit)
        self.cells = {}  # name -> ({layer: [(vertices, name)]}, [CellReference])

    def begin_structure(self, name, timestamp):
        if name in self.cells:
            raise LayoutError(f"duplicate cell name {name!r}")
        self.layers, self.references = self.cells[name] = ({}, [])

    def element(self, element):
        if isinstance(element, GdsBoundary):
            polygon = Polygon(
                [Point(x, y) for x, y in element.xy], name=element.properties.get(1, "")
            )
        elif isinstance(element, GdsPath):
            polygon = path_outline(element.xy, element.width)
            polygon.name = element.properties.get(1, "")
        else:
            transform = Transform(
                dx=element.origin[0],
                dy=element.origin[1],
                rotation=strans_angle_to_rotation(element.strans.angle),
                mirror_x=element.strans.mirror_x,
                magnification=magnification_scalar(element.strans.magnification),
            )
            repetition = None
            if isinstance(element, GdsAref):
                repetition = Repetition(
                    element.columns, element.rows, element.column_step, element.row_step
                )
            self.references.append(CellReference(element.sname, transform, repetition))
            return
        self.layers.setdefault(element.layer, []).append((polygon.vertices, polygon.name))

    def finish(self):
        skeleton = Layout(self.header[0])  # references only: closure and cycles
        for name, (_, references) in self.cells.items():
            cell = skeleton.new_cell(name)
            for reference in references:
                cell.add_reference(reference)
        for cell, ref in skeleton.iter_references():
            if ref.cell_name not in self.cells:
                raise GdsiiError(
                    f"structure {cell.name!r} references undefined structure "
                    f"{ref.cell_name!r}"
                )
        skeleton.validate()
        return (
            self.header,
            [
                (name, [(layer, layers[layer]) for layer in sorted(layers)], references)
                for name, (layers, references) in self.cells.items()
            ],
        )


def _boundary(cur):
    layer = _reader._scalar(cur, _T.LAYER)
    datatype = _reader._scalar(cur, _T.DATATYPE)
    xy = _reader._points(_reader._read(cur, _T.XY))
    if len(xy) < 4:
        raise GdsiiError("BOUNDARY with fewer than 4 points")
    if xy[0] != xy[-1]:
        raise GdsiiError("BOUNDARY XY list must repeat the first point")
    del xy[-1]
    return GdsBoundary(layer, datatype, xy, _reader._properties(cur))


def reference_snapshot(data):
    """``snapshot(read_layout_bytes(data))``, one record at a time."""
    sink = _ReferenceSink()
    cur = RecordCursor(data)
    _reader._read(cur, _T.HEADER)
    timestamp = tuple(_reader._read(cur, _T.BGNLIB)[:6])
    name = _reader._read(cur, _T.LIBNAME)
    units = _reader._read(cur, _T.UNITS)
    if len(units) != 2:
        raise GdsiiError(f"UNITS record must hold 2 reals, got {len(units)}")
    sink.begin_library(name, units[0], units[1], timestamp)
    while True:
        rtype = cur.advance()
        if rtype == _T.ENDLIB:
            return sink.finish()
        if rtype != _T.BGNSTR:
            raise _reader._unexpected(cur, rtype, "BGNSTR or ENDLIB at library level")
        timestamp = tuple(cur.payload()[:6])
        name = _reader._read(cur, _T.STRNAME)
        sink.begin_structure(name, timestamp)
        while True:
            rtype = cur.advance()
            if rtype == _T.BOUNDARY:
                sink.element(_boundary(cur))
            elif rtype == _T.SREF:
                sink.element(_reader._sref(cur))
            elif rtype == _T.ENDSTR:
                break
            elif rtype == _T.PATH:
                sink.element(_reader._path(cur))
            elif rtype == _T.AREF:
                sink.element(_reader._aref(cur))
            elif rtype == _T.TEXT:
                _reader._skip_element(cur)
            else:
                raise _reader._unexpected(
                    cur, rtype, f"an element or ENDSTR inside structure {name!r}"
                )


def checked_read_layout(data):
    """``read_layout_bytes(data)`` — after asserting the reference agrees.

    Anything but a ``ReproError`` (a ``struct.error`` from reading past a
    record, say) propagates from either side as the failure it is.
    """
    try:
        expected = "ok", reference_snapshot(data)
    except ReproError as error:
        expected = type(error).__name__, str(error)
    try:
        layout = read_layout_bytes(data)
    except ReproError as error:
        assert (type(error).__name__, str(error)) == expected
        raise
    assert ("ok", snapshot(layout)) == expected
    for (_, layers, _), cell in zip(expected[1][1], layout.cells.values()):
        for layer, rings in layers:
            assert buffer_tables(cell.rings(layer)) == reference_tables(rings)
    return layout


def buffer_tables(buffer):
    """A ring buffer's offsets and MBR table, as lists, and its coordinate count."""
    assert (buffer.coords.typecode, buffer.offsets.typecode, buffer.mbrs.typecode) == ("q",) * 3
    return list(buffer.offsets), list(buffer.mbrs), len(buffer.coords)


def reference_tables(rings):
    """What :func:`buffer_tables` must be for the reference's ``(vertices, name)`` rings."""
    offsets = list(accumulate((2 * len(vertices) for vertices, _ in rings), initial=0))
    mbrs = []
    for vertices, _ in rings:
        xs, ys = [x for x, _ in vertices], [y for _, y in vertices]
        mbrs += [min(xs), min(ys), max(xs), max(ys)]
    return offsets, mbrs, offsets[-1]

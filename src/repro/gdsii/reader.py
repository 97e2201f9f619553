"""GDSII stream reader: one scan of the buffer, one grammar, any sink.

:func:`walk_stream` moves a :class:`~repro.gdsii.records.RecordCursor` over
the stream bytes once, enforcing the recursive grammar of the paper's Fig. 2
(library -> structure* -> element*), and hands every structure and element
to a *sink* as it is recognised. :func:`read_bytes` plugs in the sink that
keeps the raw object model of :mod:`repro.gdsii.model`;
:func:`repro.gdsii.read_layout_bytes` plugs in
:class:`repro.layout.builder.LayoutSink`, which fills the layout database
directly. The reader is strict: malformed nesting, missing mandatory
records, or unknown record types raise :class:`~repro.errors.GdsiiError`
with the offending context.

Inside that one grammar the canonical BOUNDARY element (BOUNDARY, LAYER,
DATATYPE, one XY of a closed ring, ENDEL, nothing else) is decoded *fused*:
one unpack of its fixed header bytes, one of its coordinates, one compare of
its ENDEL. The fused decode only ever **accepts** — anything it does not
recognise is left untouched for the record-by-record walk, which alone
decides what is an error and how it reads.

A sink may also take a structure whole instead of having it walked: right
after STRNAME the walk asks it, and resumes past ENDSTR if it did.
:class:`repro.layout.builder.LayoutSink` does so only for bytes that hash
like those a cell of the previous version was read from (:func:`source_token`):
bytes this walk already accepted from the same grammar state, so a stream
reads to the same layout, or fails with the same error at the same place,
either way.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Dict, List, Sequence, Tuple, Union

from ..errors import GdsiiError
from .model import (
    GdsAref,
    GdsBoundary,
    GdsLibrary,
    GdsPath,
    GdsSref,
    GdsStrans,
    GdsStructure,
)
from .records import END_OF_STREAM, RecordCursor, RecordType

(
    _HEADER, _BGNLIB, _LIBNAME, _UNITS, _ENDLIB, _BGNSTR, _STRNAME, _ENDSTR,
    _BOUNDARY, _PATH, _SREF, _AREF, _TEXT, _LAYER, _DATATYPE, _WIDTH, _XY,
    _ENDEL, _SNAME, _COLROW, _STRING, _STRANS, _MAG, _ANGLE, _PATHTYPE,
    _PROPATTR, _PROPVALUE,
) = (
    int(RecordType[name])
    for name in (
        "HEADER", "BGNLIB", "LIBNAME", "UNITS", "ENDLIB", "BGNSTR", "STRNAME",
        "ENDSTR", "BOUNDARY", "PATH", "SREF", "AREF", "TEXT", "LAYER",
        "DATATYPE", "WIDTH", "XY", "ENDEL", "SNAME", "COLROW", "STRING",
        "STRANS", "MAG", "ANGLE", "PATHTYPE", "PROPATTR", "PROPVALUE",
    )
)  # fmt: skip


def read(path: Union[str, "os.PathLike"]) -> GdsLibrary:
    """Read a GDSII stream file into a :class:`GdsLibrary`."""
    with open(path, "rb") as f:
        return read_bytes(f.read())


def read_bytes(data: bytes) -> GdsLibrary:
    """Parse in-memory GDSII stream bytes into the raw object model."""
    return walk_stream(data, _ModelSink())


class _ModelSink:
    """Keeps what the walk emits as a :class:`GdsLibrary`."""

    def begin_library(self, name, user_unit, meters_per_unit, timestamp) -> None:
        self.library = GdsLibrary(
            name=name,
            user_unit=user_unit,
            meters_per_unit=meters_per_unit,
            timestamp=timestamp,
        )

    def begin_structure(self, name: str, timestamp: Tuple[int, ...]) -> None:
        structure = GdsStructure(name=name, timestamp=timestamp)
        self.library.structures.append(structure)
        self.element = structure.elements.append

    def carry_over(self, data: bytes, start: int) -> int:
        return 0

    def end_structure(self, data: bytes, start: int, stop: int) -> None:
        pass

    def boundary(self, layer: int, datatype: int, flat: Sequence[int], properties) -> None:
        self.element(GdsBoundary(layer, datatype, list(zip(flat[0::2], flat[1::2])), properties))

    def finish(self) -> GdsLibrary:
        self.library.validate_references()
        return self.library


def walk_stream(data: bytes, sink):
    """Scan ``data`` once and feed ``sink``; returns ``sink.finish()``.

    A sink has ``begin_library(name, user_unit, meters_per_unit, timestamp)``,
    ``begin_structure(name, timestamp)``, ``carry_over(data, start)``,
    ``boundary(layer, datatype, flat, properties)`` (a BOUNDARY of the
    structure begun last: ``flat`` is ``x0, y0, x1, y1, ...`` of its ring,
    at least three points, the closing repeat of the first dropped),
    ``element(gds_element)`` (a PATH, SREF or AREF as a
    :mod:`~repro.gdsii.model` element), ``end_structure(data, start, stop)``
    and ``finish()``. ``boundary`` and ``element`` are looked up after each
    ``begin_structure``. TEXT elements carry no DRC geometry and are skipped.

    ``start`` is the offset of a structure's STRNAME record. After
    ``begin_structure`` the walk asks ``carry_over`` whether the sink took
    the structure whole: a non-zero answer is the offset just past its
    ENDSTR, where the walk resumes. Otherwise the structure is walked and
    ``end_structure`` gets its range, ``stop`` just past ENDSTR.
    """
    cur = RecordCursor(data)
    _read(cur, _HEADER)
    timestamp = tuple(_read(cur, _BGNLIB)[:6])
    name = _read(cur, _LIBNAME)
    units = _read(cur, _UNITS)
    if len(units) != 2:
        raise GdsiiError(f"UNITS record must hold 2 reals, got {len(units)}")
    sink.begin_library(name, units[0], units[1], timestamp)
    while True:
        rtype = cur.advance()
        if rtype == _ENDLIB:
            return sink.finish()
        if rtype != _BGNSTR:
            raise _unexpected(cur, rtype, "BGNSTR or ENDLIB at library level")
        timestamp = tuple(cur.payload()[:6])
        start = cur.offset
        name = _read(cur, _STRNAME)
        sink.begin_structure(name, timestamp)
        stop = sink.carry_over(data, start)
        if stop:
            cur.offset = stop
            continue
        _walk_structure(cur, name, sink.boundary, sink.element)
        sink.end_structure(data, start, cur.offset)


def source_token(data: bytes, start: int, stop: int) -> Tuple[int, bytes]:
    """``(length, sha256)`` of ``data[start:stop]``: a structure's bytes from
    its STRNAME record through ENDSTR (BGNSTR's timestamps left out)."""
    return stop - start, hashlib.sha256(memoryview(data)[start:stop]).digest()


#: The fixed bytes that open a canonical BOUNDARY, as one unpack: BOUNDARY
#: header + LAYER header (one word), layer, DATATYPE header, datatype, XY
#: length, XY type bytes.
_FUSED_HEAD = struct.Struct(">QhIhHH")
_BOUNDARY_LAYER_WORD = 0x0004_0800_0006_0D02
_DATATYPE_WORD = 0x0006_0E02
_XY_INT32 = 0x1003
_ENDEL_BYTES = b"\x00\x04\x11\x00"
#: The XY payload of a rectangle: five points, the first repeated.
_RECTANGLE_XY = struct.Struct(">10i")


def _walk_structure(cur: RecordCursor, name: str, emit_boundary, emit) -> None:
    data = cur.data
    last_head = cur.size - _FUSED_HEAD.size
    unpack_head = _FUSED_HEAD.unpack_from
    while True:
        offset = cur.offset
        if offset <= last_head:
            word, layer, datatype_word, datatype, xy_length, xy_type = unpack_head(data, offset)
            if (
                word == _BOUNDARY_LAYER_WORD
                and datatype_word == _DATATYPE_WORD
                and xy_type == _XY_INT32
                # a closed ring of >= 3 points: an even count of >= 8 int32
                and xy_length >= 36
                and xy_length & 7 == 4
            ):
                endel = offset + 16 + xy_length
                if data[endel : endel + 4] == _ENDEL_BYTES:
                    if xy_length == 44:
                        flat = _RECTANGLE_XY.unpack_from(data, offset + 20)
                    else:
                        flat = struct.unpack_from(
                            ">%di" % ((xy_length - 4) >> 2), data, offset + 20
                        )
                    if flat[0] == flat[-2] and flat[1] == flat[-1]:
                        cur.offset = endel + 4
                        emit_boundary(layer, datatype, flat[:-2], {})
                        continue
        rtype = cur.advance()
        if rtype == _BOUNDARY:
            _boundary(cur, emit_boundary)
        elif rtype == _SREF:
            emit(_sref(cur))
        elif rtype == _ENDSTR:
            return
        elif rtype == _PATH:
            emit(_path(cur))
        elif rtype == _AREF:
            emit(_aref(cur))
        elif rtype == _TEXT:
            _skip_element(cur)
        else:
            raise _unexpected(cur, rtype, f"an element or ENDSTR inside structure {name!r}")


# -- elements ---------------------------------------------------------------


def _boundary(cur: RecordCursor, emit_boundary) -> None:
    layer = _scalar(cur, _LAYER)
    datatype = _scalar(cur, _DATATYPE)
    flat = _read(cur, _XY)
    if len(flat) % 2:
        raise GdsiiError("XY record with an odd coordinate count")
    if len(flat) < 8:
        raise GdsiiError("BOUNDARY with fewer than 4 points")
    if flat[:2] != flat[-2:]:
        raise GdsiiError("BOUNDARY XY list must repeat the first point")
    del flat[-2:]
    emit_boundary(layer, datatype, flat, _properties(cur))


def _path(cur: RecordCursor) -> GdsPath:
    layer = _scalar(cur, _LAYER)
    datatype = _scalar(cur, _DATATYPE)
    pathtype = width = 0
    rtype = cur.advance()
    if rtype == _PATHTYPE:
        pathtype = _first(cur)
        rtype = cur.advance()
    if rtype == _WIDTH:
        width = _first(cur)
        rtype = cur.advance()
    _require(cur, rtype, _XY)
    xy = _points(cur.payload())
    if len(xy) < 2:
        raise GdsiiError("PATH with fewer than 2 points")
    return GdsPath(layer, datatype, width, xy, pathtype, _properties(cur))


def _sref(cur: RecordCursor) -> GdsSref:
    sname = _read(cur, _SNAME)
    strans, rtype = _strans(cur)
    _require(cur, rtype, _XY)
    xy = _points(cur.payload())
    if len(xy) != 1:
        raise GdsiiError(f"SREF XY must hold exactly 1 point, got {len(xy)}")
    return GdsSref(sname, xy[0], strans, _properties(cur))


def _aref(cur: RecordCursor) -> GdsAref:
    sname = _read(cur, _SNAME)
    strans, rtype = _strans(cur)
    _require(cur, rtype, _COLROW)
    colrow = cur.payload()
    if len(colrow) != 2:
        raise GdsiiError("COLROW must hold exactly 2 int16 values")
    xy = _points(_read(cur, _XY))
    if len(xy) != 3:
        raise GdsiiError(f"AREF XY must hold exactly 3 points, got {len(xy)}")
    return GdsAref(sname, colrow[0], colrow[1], xy, strans, _properties(cur))


# -- shared pieces ------------------------------------------------------------


def _strans(cur: RecordCursor) -> Tuple[GdsStrans, int]:
    """The optional STRANS [MAG] [ANGLE] group, and the record type after it."""
    strans = GdsStrans()
    rtype = cur.advance()
    if rtype != _STRANS:
        return strans, rtype
    strans.mirror_x = bool(cur.payload()[0] & 0x80)
    rtype = cur.advance()
    if rtype == _MAG:
        strans.magnification = _first(cur)
        rtype = cur.advance()
    if rtype == _ANGLE:
        strans.angle = _first(cur)
        rtype = cur.advance()
    return strans, rtype


def _first(cur: RecordCursor):
    """The value of the current, single-valued record (WIDTH, MAG...)."""
    values = cur.payload()
    if not values:
        raise GdsiiError(f"record at offset {cur.start - 4} has an empty payload")
    return values[0]


def _points(flat: List[int]) -> List[Tuple[int, int]]:
    if len(flat) % 2:
        raise GdsiiError("XY record with an odd coordinate count")
    return list(zip(flat[0::2], flat[1::2]))


def _properties(cur: RecordCursor) -> Dict[int, str]:
    """The PROPATTR/PROPVALUE pairs that end an element, through its ENDEL."""
    properties: Dict[int, str] = {}
    rtype = cur.advance()
    while rtype == _PROPATTR:
        attr = _first(cur)
        properties[attr] = _read(cur, _PROPVALUE)
        rtype = cur.advance()
    _require(cur, rtype, _ENDEL)
    return properties


def _skip_element(cur: RecordCursor) -> None:
    """Pass over a TEXT element; its strings must still be ASCII."""
    while True:
        rtype = cur.advance()
        if rtype == _ENDEL:
            return
        if rtype == END_OF_STREAM:
            raise _unexpected(cur, rtype, "ENDEL")
        if rtype == _STRING or rtype == _PROPVALUE:
            cur.payload()


def _read(cur: RecordCursor, wanted: int):
    """Step to the next record, which must be of type ``wanted``; its payload."""
    _require(cur, cur.advance(), wanted)
    return cur.payload()


def _scalar(cur: RecordCursor, wanted: int):
    """:func:`_read` for a single-valued record (LAYER, DATATYPE...)."""
    _require(cur, cur.advance(), wanted)
    return _first(cur)


def _require(cur: RecordCursor, rtype: int, wanted: int) -> None:
    if rtype != wanted:
        raise _unexpected(cur, rtype, RecordType(wanted).name)


def _unexpected(cur: RecordCursor, rtype: int, wanted: str) -> GdsiiError:
    if rtype == END_OF_STREAM:
        return GdsiiError(f"unexpected end of GDSII stream (expected {wanted})")
    return GdsiiError(
        f"expected {wanted}, found {RecordType(rtype).name} (record at offset {cur.start - 4})"
    )

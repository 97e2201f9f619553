"""GDSII stream record grammar.

A GDSII file is a flat sequence of records; each record is a 2-byte
big-endian length (including the 4-byte header), a 1-byte record type, and a
1-byte data type, followed by payload. The recursive structure of Fig. 2 in
the paper (library -> structures -> elements -> structure references) is a
grammar *over* this flat record stream; :mod:`repro.gdsii.reader` implements
that grammar on top of :class:`RecordCursor`, which walks the records of a
``bytes`` buffer in place. :class:`Record` and :func:`unpack_records` are the
materialised view of the same walk, for the writer, the tests and tools.
"""

from __future__ import annotations

import enum
import struct
from typing import List, NamedTuple, Sequence, Union

from ..errors import GdsiiError
from .real8 import encode_real8, real8_from_word


class RecordType(enum.IntEnum):
    """The subset of GDSII record types this codec understands."""

    HEADER = 0x00
    BGNLIB = 0x01
    LIBNAME = 0x02
    UNITS = 0x03
    ENDLIB = 0x04
    BGNSTR = 0x05
    STRNAME = 0x06
    ENDSTR = 0x07
    BOUNDARY = 0x08
    PATH = 0x09
    SREF = 0x0A
    AREF = 0x0B
    TEXT = 0x0C
    LAYER = 0x0D
    DATATYPE = 0x0E
    WIDTH = 0x0F
    XY = 0x10
    ENDEL = 0x11
    SNAME = 0x12
    COLROW = 0x13
    TEXTTYPE = 0x16
    PRESENTATION = 0x17
    STRING = 0x19
    STRANS = 0x1A
    MAG = 0x1B
    ANGLE = 0x1C
    PATHTYPE = 0x21
    PROPATTR = 0x2B
    PROPVALUE = 0x2C


class DataType(enum.IntEnum):
    """GDSII payload data types."""

    NO_DATA = 0x00
    BIT_ARRAY = 0x01
    INT16 = 0x02
    INT32 = 0x03
    REAL4 = 0x04
    REAL8 = 0x05
    ASCII = 0x06


#: Payload data type each record type must carry.
EXPECTED_DATA_TYPE = {
    RecordType.HEADER: DataType.INT16,
    RecordType.BGNLIB: DataType.INT16,
    RecordType.LIBNAME: DataType.ASCII,
    RecordType.UNITS: DataType.REAL8,
    RecordType.ENDLIB: DataType.NO_DATA,
    RecordType.BGNSTR: DataType.INT16,
    RecordType.STRNAME: DataType.ASCII,
    RecordType.ENDSTR: DataType.NO_DATA,
    RecordType.BOUNDARY: DataType.NO_DATA,
    RecordType.PATH: DataType.NO_DATA,
    RecordType.SREF: DataType.NO_DATA,
    RecordType.AREF: DataType.NO_DATA,
    RecordType.TEXT: DataType.NO_DATA,
    RecordType.LAYER: DataType.INT16,
    RecordType.DATATYPE: DataType.INT16,
    RecordType.WIDTH: DataType.INT32,
    RecordType.XY: DataType.INT32,
    RecordType.ENDEL: DataType.NO_DATA,
    RecordType.SNAME: DataType.ASCII,
    RecordType.COLROW: DataType.INT16,
    RecordType.TEXTTYPE: DataType.INT16,
    RecordType.PRESENTATION: DataType.BIT_ARRAY,
    RecordType.STRING: DataType.ASCII,
    RecordType.STRANS: DataType.BIT_ARRAY,
    RecordType.MAG: DataType.REAL8,
    RecordType.ANGLE: DataType.REAL8,
    RecordType.PATHTYPE: DataType.INT16,
    RecordType.PROPATTR: DataType.INT16,
    RecordType.PROPVALUE: DataType.ASCII,
}

Payload = Union[None, bytes, str, List[int], List[float]]


class Record(NamedTuple):
    """One decoded stream record."""

    record_type: RecordType
    data_type: DataType
    payload: Payload


#: Data type byte -> (base, step): a legal payload of that type is
#: ``base + k * step`` bytes long. A step longer than any record fixes the
#: size at ``base`` (NO_DATA: nothing, BIT_ARRAY: one 16-bit word).
_PAYLOAD_SIZE = ((0, 1 << 16), (2, 1 << 16), (0, 2), (0, 4), (0, 4), (0, 8), (0, 1))
_NO_DATA, _BIT_ARRAY, _INT16, _INT32, _REAL4, _REAL8, _ASCII = range(7)


def _decode(dtype: int, data: bytes, start: int, end: int) -> Payload:
    """Decode ``data[start:end]``, a payload of a legal size for ``dtype``."""
    if dtype == _INT16:
        return list(struct.unpack_from(">%dh" % ((end - start) >> 1), data, start))
    if dtype == _INT32:
        return list(struct.unpack_from(">%di" % ((end - start) >> 2), data, start))
    if dtype == _ASCII:
        try:
            return data[start:end].rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError:
            raise GdsiiError(f"non-ASCII bytes in {data[start:end]!r}") from None
    if dtype == _REAL8:
        words = struct.unpack_from(">%dQ" % ((end - start) >> 3), data, start)
        return [real8_from_word(word) for word in words]
    if dtype == _BIT_ARRAY:
        return data[start:end]
    if dtype == _NO_DATA:
        return None
    raise GdsiiError(f"unsupported data type {dtype!r}")


def decode_payload(data_type: DataType, raw: bytes) -> Payload:
    """Decode a record payload according to its data type."""
    base, step = _PAYLOAD_SIZE[data_type]
    if (len(raw) - base) % step:
        raise GdsiiError(f"{len(raw)} bytes is not a legal {data_type.name} payload size")
    return _decode(data_type, raw, 0, len(raw))


def encode_payload(data_type: DataType, payload: Payload) -> bytes:
    """Encode a record payload; inverse of :func:`decode_payload`."""
    if data_type is DataType.NO_DATA:
        return b""
    if data_type is DataType.BIT_ARRAY:
        assert isinstance(payload, bytes)
        return payload
    if data_type is DataType.INT16:
        assert isinstance(payload, list)
        return struct.pack(f">{len(payload)}h", *payload)
    if data_type is DataType.INT32:
        assert isinstance(payload, list)
        return struct.pack(f">{len(payload)}i", *payload)
    if data_type is DataType.REAL8:
        assert isinstance(payload, list)
        return b"".join(encode_real8(v) for v in payload)
    if data_type is DataType.ASCII:
        assert isinstance(payload, str)
        raw = payload.encode("ascii")
        if len(raw) % 2:
            raw += b"\x00"  # GDSII pads ASCII payloads to even length
        return raw
    raise GdsiiError(f"unsupported data type {data_type!r}")


def pack_record(record: Record) -> bytes:
    """Serialize one record to stream bytes."""
    body = encode_payload(record.data_type, record.payload)
    length = len(body) + 4
    if length > 0xFFFF:
        raise GdsiiError(f"record {record.record_type.name} payload too large ({length} bytes)")
    return struct.pack(">HBB", length, record.record_type, record.data_type) + body


#: :meth:`RecordCursor.advance` past the last record.
END_OF_STREAM = -1

_HEADER = struct.Struct(">HBB")
#: Record type byte -> the data type byte it must carry (-1: unknown type).
_EXPECTED = [-1] * 256
for _rtype, _dtype in EXPECTED_DATA_TYPE.items():
    _EXPECTED[_rtype] = int(_dtype)


class RecordCursor:
    """Walks the records of a stream buffer in place, one header at a time.

    :meth:`advance` validates every record it steps onto (length inside the
    buffer, known record type, the data type that record type must carry, a
    payload size legal for that data type) and leaves the payload at
    ``data[start:end]``; :meth:`payload` decodes it straight from the
    buffer, so no per-record object is built.
    """

    __slots__ = ("data", "size", "offset", "dtype", "start", "end")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.size = len(data)
        self.offset = 0  # of the record after the current one
        self.dtype = self.start = self.end = 0

    def advance(self) -> int:
        """Step to the next record and return its type byte.

        Returns :data:`END_OF_STREAM` when fewer than four bytes remain or
        at a zero length (null padding after ENDLIB).
        """
        offset = self.offset
        if offset + 4 > self.size:
            return END_OF_STREAM
        length, rtype, dtype = _HEADER.unpack_from(self.data, offset)
        if length == 0:
            return END_OF_STREAM
        end = offset + length
        if length < 4 or end > self.size:
            raise GdsiiError(f"record at offset {offset} has bad length {length}")
        expected = _EXPECTED[rtype]
        if expected < 0:
            raise GdsiiError(f"unknown record type 0x{rtype:02X} at offset {offset}")
        if dtype != expected:
            raise GdsiiError(
                f"{RecordType(rtype).name} record at offset {offset} carries data "
                f"type 0x{dtype:02X}, expected {DataType(expected).name}"
            )
        base, step = _PAYLOAD_SIZE[dtype]
        if (length - 4 - base) % step:
            raise GdsiiError(
                f"{RecordType(rtype).name} record at offset {offset}: {length - 4} "
                f"bytes is not a legal {DataType(dtype).name} payload size"
            )
        self.dtype = dtype
        self.start = offset + 4
        self.end = self.offset = end
        return rtype

    def payload(self) -> Payload:
        """The current record's payload, decoded for its data type."""
        return _decode(self.dtype, self.data, self.start, self.end)


def unpack_records(data: bytes) -> List[Record]:
    """Split stream bytes into decoded records; stops at ENDLIB or end of data."""
    records: List[Record] = []
    cursor = RecordCursor(data)
    while True:
        rtype_raw = cursor.advance()
        if rtype_raw == END_OF_STREAM:
            return records
        rtype = RecordType(rtype_raw)
        dtype = EXPECTED_DATA_TYPE[rtype]
        records.append(Record(rtype, dtype, decode_payload(dtype, data[cursor.start : cursor.end])))
        if rtype is RecordType.ENDLIB:
            return records


def make_record(rtype: RecordType, payload: Payload = None) -> Record:
    """Build a record with the data type mandated for ``rtype``."""
    return Record(rtype, EXPECTED_DATA_TYPE[rtype], payload)


def xy_record(points: Sequence) -> Record:
    """Build an XY record from a point sequence (closing point NOT added)."""
    flat: List[int] = []
    for p in points:
        flat.append(int(p[0]))
        flat.append(int(p[1]))
    return make_record(RecordType.XY, flat)

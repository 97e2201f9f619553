"""Malformed-stream corpus: the reader must fail loudly, never mis-parse.

Every case goes through both entry points of the one grammar walk: the model
sink (``read_bytes``) and the layout sink (``read_layout_bytes``) — and every
``read_layout_bytes`` of this file is also held to the record-by-record walk
of ``tests/reference_reader.py``: the same layout, or the same error message.
"""

import random
import struct

import pytest

from repro.errors import GdsiiError, GeometryError, ReproError
from repro.gdsii import (
    GdsBoundary,
    GdsLibrary,
    GdsStructure,
    read_bytes,
    write_bytes,
)
from repro.gdsii.records import DataType, RecordType, make_record, pack_record
from repro.geometry import Point, Polygon
from repro.layout import Layout, gdsii_from_layout, layout_from_gdsii
from repro.workloads import build_design

from .reference_reader import checked_read_layout as read_layout_bytes

READERS = (read_bytes, read_layout_bytes)


def assert_rejected(data):
    """Both entry points refuse ``data``, with the same exception class."""
    for read in READERS:
        with pytest.raises(GdsiiError):
            read(data)


def records(*recs):
    return b"".join(pack_record(r) for r in recs)


def header():
    return [
        make_record(RecordType.HEADER, [600]),
        make_record(RecordType.BGNLIB, [2023, 1, 1, 0, 0, 0] * 2),
        make_record(RecordType.LIBNAME, "L"),
        make_record(RecordType.UNITS, [0.001, 1e-9]),
    ]


class TestLibraryLevel:
    def test_missing_header(self):
        data = records(make_record(RecordType.BGNLIB, [0] * 12))
        assert_rejected(data)

    def test_missing_units(self):
        data = records(
            make_record(RecordType.HEADER, [600]),
            make_record(RecordType.BGNLIB, [0] * 12),
            make_record(RecordType.LIBNAME, "L"),
            make_record(RecordType.ENDLIB),
        )
        assert_rejected(data)

    def test_units_wrong_arity(self):
        data = records(
            make_record(RecordType.HEADER, [600]),
            make_record(RecordType.BGNLIB, [0] * 12),
            make_record(RecordType.LIBNAME, "L"),
            make_record(RecordType.UNITS, [0.001]),
        )
        assert_rejected(data)

    def test_truncated_before_endlib(self):
        data = records(*header())
        assert_rejected(data)

    def test_element_at_library_level(self):
        data = records(*header(), make_record(RecordType.BOUNDARY))
        assert_rejected(data)


class TestStructureLevel:
    def _with_structure(self, *body):
        return records(
            *header(),
            make_record(RecordType.BGNSTR, [0] * 12),
            make_record(RecordType.STRNAME, "S"),
            *body,
        )

    def test_boundary_without_closing_point(self):
        data = self._with_structure(
            make_record(RecordType.BOUNDARY),
            make_record(RecordType.LAYER, [1]),
            make_record(RecordType.DATATYPE, [0]),
            make_record(RecordType.XY, [0, 0, 0, 10, 10, 10, 10, 0]),  # not closed
            make_record(RecordType.ENDEL),
            make_record(RecordType.ENDSTR),
            make_record(RecordType.ENDLIB),
        )
        assert_rejected(data)

    def test_boundary_too_few_points(self):
        data = self._with_structure(
            make_record(RecordType.BOUNDARY),
            make_record(RecordType.LAYER, [1]),
            make_record(RecordType.DATATYPE, [0]),
            make_record(RecordType.XY, [0, 0, 10, 10, 0, 0]),
            make_record(RecordType.ENDEL),
            make_record(RecordType.ENDSTR),
            make_record(RecordType.ENDLIB),
        )
        assert_rejected(data)

    def test_boundary_missing_layer(self):
        data = self._with_structure(
            make_record(RecordType.BOUNDARY),
            make_record(RecordType.DATATYPE, [0]),
            make_record(RecordType.XY, [0, 0, 0, 10, 10, 10, 0, 0]),
            make_record(RecordType.ENDEL),
            make_record(RecordType.ENDSTR),
            make_record(RecordType.ENDLIB),
        )
        assert_rejected(data)

    def test_sref_with_two_points(self):
        data = self._with_structure(
            make_record(RecordType.SREF),
            make_record(RecordType.SNAME, "S"),
            make_record(RecordType.XY, [0, 0, 5, 5]),
            make_record(RecordType.ENDEL),
            make_record(RecordType.ENDSTR),
            make_record(RecordType.ENDLIB),
        )
        assert_rejected(data)

    def test_aref_with_two_points(self):
        data = self._with_structure(
            make_record(RecordType.AREF),
            make_record(RecordType.SNAME, "S"),
            make_record(RecordType.COLROW, [2, 2]),
            make_record(RecordType.XY, [0, 0, 10, 0]),
            make_record(RecordType.ENDEL),
            make_record(RecordType.ENDSTR),
            make_record(RecordType.ENDLIB),
        )
        assert_rejected(data)

    def test_dangling_reference(self):
        data = self._with_structure(
            make_record(RecordType.SREF),
            make_record(RecordType.SNAME, "GHOST"),
            make_record(RecordType.XY, [0, 0]),
            make_record(RecordType.ENDEL),
            make_record(RecordType.ENDSTR),
            make_record(RecordType.ENDLIB),
        )
        assert_rejected(data)

    def test_text_elements_skipped(self):
        data = self._with_structure(
            make_record(RecordType.TEXT),
            make_record(RecordType.LAYER, [1]),
            make_record(RecordType.TEXTTYPE, [0]),
            make_record(RecordType.XY, [5, 5]),
            make_record(RecordType.STRING, "label"),
            make_record(RecordType.ENDEL),
            make_record(RecordType.ENDSTR),
            make_record(RecordType.ENDLIB),
        )
        assert read_bytes(data).structure("S").elements == []
        assert read_layout_bytes(data).cell("S").num_local_polygons == 0

    def test_non_ascii_label_in_skipped_text(self):
        label = pack_record(make_record(RecordType.STRING, "ab"))[:4] + b"\xe9\xff"
        data = (
            self._with_structure(make_record(RecordType.TEXT))
            + label
            + records(
                make_record(RecordType.ENDEL),
                make_record(RecordType.ENDSTR),
                make_record(RecordType.ENDLIB),
            )
        )
        assert_rejected(data)

    @pytest.mark.parametrize("empty", [RecordType.LAYER, RecordType.DATATYPE])
    def test_single_valued_record_without_a_value(self, empty):
        values = {RecordType.LAYER: [1], RecordType.DATATYPE: [0], empty: []}
        data = self._with_structure(
            make_record(RecordType.BOUNDARY),
            make_record(RecordType.LAYER, values[RecordType.LAYER]),
            make_record(RecordType.DATATYPE, values[RecordType.DATATYPE]),
            make_record(RecordType.XY, [0, 0, 0, 10, 10, 10, 10, 0, 0, 0]),
            make_record(RecordType.ENDEL),
            make_record(RecordType.ENDSTR),
            make_record(RecordType.ENDLIB),
        )
        assert_rejected(data)


class TestRecordCorruption:
    def test_garbage_bytes(self):
        assert_rejected(b"\xde\xad\xbe\xef" * 10)

    def test_record_length_past_end(self):
        data = struct.pack(">HBB", 5000, RecordType.HEADER, DataType.INT16)
        assert_rejected(data)

    def test_bit_flip_in_valid_stream_is_caught_or_parses(self):
        """Flipping record-type bytes must raise GdsiiError, never crash."""
        lib = GdsLibrary(
            structures=[
                GdsStructure(
                    "S",
                    [GdsBoundary(1, 0, [(0, 0), (0, 10), (10, 10), (10, 0)])],
                )
            ]
        )
        data = bytearray(write_bytes(lib))
        for offset in range(2, len(data), 7):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0xFF
            for read in READERS:
                try:
                    read(bytes(corrupted))
                except GdsiiError:
                    pass  # expected: loud failure
                except GeometryError:
                    # A flipped coordinate: only the layout sink builds polygons.
                    assert read is read_layout_bytes


def ring_stream(flat_xy):
    """A one-structure stream whose only element is a BOUNDARY with this XY."""
    return records(
        *header(),
        make_record(RecordType.BGNSTR, [0] * 12),
        make_record(RecordType.STRNAME, "S"),
        make_record(RecordType.BOUNDARY),
        make_record(RecordType.LAYER, [1]),
        make_record(RecordType.DATATYPE, [0]),
        make_record(RecordType.XY, flat_xy),
        make_record(RecordType.ENDEL),
        make_record(RecordType.ENDSTR),
        make_record(RecordType.ENDLIB),
    )


class TestDegenerateRings:
    """Five-point rings that look like rectangles to a careless fast path."""

    RINGS = {
        "zero-width": [0, 0, 0, 10, 0, 10, 0, 0, 0, 0],
        "zero-height": [0, 0, 10, 0, 10, 0, 0, 0, 0, 0],
        "bow-tie": [0, 0, 10, 10, 10, 0, 0, 10, 0, 0],
        "repeated-corner": [0, 0, 0, 10, 0, 10, 10, 0, 0, 0],
        "spike": [0, 0, 0, 10, 0, 5, 10, 5, 0, 0],
        "diagonal": [0, 0, 0, 10, 10, 11, 10, 0, 0, 0],
    }

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_same_error_as_the_validating_constructor(self, name):
        flat = self.RINGS[name]
        points = [Point(x, y) for x, y in zip(flat[0:-2:2], flat[1:-2:2])]
        with pytest.raises(GeometryError) as expected:
            Polygon(points)
        data = ring_stream(flat)
        for build in (read_layout_bytes, lambda d: layout_from_gdsii(read_bytes(d))):
            with pytest.raises(GeometryError) as raised:
                build(data)
            assert str(raised.value) == str(expected.value)

    def test_unclosed_ring(self):
        assert_rejected(ring_stream([0, 0, 0, 10, 10, 10, 10, 0, 5, 5]))


class TestFuzz:
    """Seeded corruption of a ledger-sized stream (jpeg@2, ~380 KB).

    Whatever the damage, a read ends in a layout or in a ``ReproError``:
    never ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError``, which
    is what reading past a record or past ``len(data)`` would surface as.
    """

    @pytest.fixture(scope="class")
    def stream(self):
        return write_bytes(gdsii_from_layout(build_design("jpeg", 2)))

    @staticmethod
    def _header_offsets(data):
        offsets, offset = [], 0
        while offset + 4 <= len(data):
            offsets.append(offset)
            offset += struct.unpack_from(">H", data, offset)[0]
        return offsets

    @staticmethod
    def _survives(data):
        try:
            return isinstance(read_layout_bytes(data), Layout)
        except ReproError:
            return False

    def test_byte_flips(self, stream):
        rng = random.Random(17)
        headers = self._header_offsets(stream)
        parsed = 0
        for case in range(60):
            corrupted = bytearray(stream)
            if case % 3:
                # Aim at a record header: length, record type or data type.
                at = rng.choice(headers) + rng.randrange(4)
            else:
                at = rng.randrange(len(stream))
            corrupted[at] ^= 1 << rng.randrange(8)
            parsed += self._survives(bytes(corrupted))
        assert 0 < parsed < 60  # both outcomes were exercised

    def test_truncations(self, stream):
        rng = random.Random(23)
        headers = self._header_offsets(stream)
        cuts = [rng.randrange(len(stream)) for _ in range(20)]
        cuts += [rng.choice(headers) + rng.randrange(1, 4) for _ in range(20)]  # mid-header
        cuts += [0, 1, 3, 4, len(stream) - 4, len(stream) - 1]
        for cut in cuts:
            assert not self._survives(stream[:cut])

    def test_targeted_damage(self, stream):
        headers = self._header_offsets(stream)
        middle = headers[len(headers) // 2]
        zero_length = stream[:middle] + b"\x00\x00" + stream[middle + 2 :]
        overrun = stream[: headers[-2]] + struct.pack(
            ">HBB", 0xFFF0, RecordType.XY, DataType.INT32
        )
        missing_endlib = stream[: headers[-1]]
        strname = next(
            o for o in headers if stream[o + 2] == RecordType.STRNAME
        )
        non_ascii = stream[: strname + 4] + b"\xc3" + stream[strname + 5 :]
        for damaged in (zero_length, overrun, missing_endlib, non_ascii):
            assert_rejected(damaged)

    def test_trailing_padding_is_not_read(self, stream):
        padded = stream + b"\x00" * 2048
        assert isinstance(read_layout_bytes(padded), Layout)
        assert isinstance(read_layout_bytes(stream + b"\xff\xff\xff"), Layout)

import pytest

from repro.errors import GdsiiError
from repro.gdsii.records import (
    DataType,
    RecordType,
    decode_payload,
    encode_payload,
    make_record,
    pack_record,
    unpack_records,
    xy_record,
)


class TestPayloadCodec:
    def test_int16(self):
        raw = encode_payload(DataType.INT16, [1, -2, 300])
        assert decode_payload(DataType.INT16, raw) == [1, -2, 300]

    def test_int32(self):
        raw = encode_payload(DataType.INT32, [100000, -5])
        assert decode_payload(DataType.INT32, raw) == [100000, -5]

    def test_ascii_padding_to_even(self):
        raw = encode_payload(DataType.ASCII, "ODD")
        assert len(raw) % 2 == 0
        assert decode_payload(DataType.ASCII, raw) == "ODD"

    def test_ascii_even_no_padding(self):
        raw = encode_payload(DataType.ASCII, "EVEN")
        assert raw == b"EVEN"

    def test_real8_list(self):
        raw = encode_payload(DataType.REAL8, [1.0, 0.001])
        assert decode_payload(DataType.REAL8, raw) == [1.0, 0.001]

    def test_no_data(self):
        assert encode_payload(DataType.NO_DATA, None) == b""
        assert decode_payload(DataType.NO_DATA, b"") is None

    def test_no_data_with_payload_raises(self):
        with pytest.raises(GdsiiError):
            decode_payload(DataType.NO_DATA, b"\x00")

    def test_bad_int16_length(self):
        with pytest.raises(GdsiiError):
            decode_payload(DataType.INT16, b"\x00")


class TestRecordStream:
    def test_pack_unpack_round_trip(self):
        records = [
            make_record(RecordType.HEADER, [600]),
            make_record(RecordType.LIBNAME, "TESTLIB"),
            xy_record([(0, 0), (10, 20)]),
            make_record(RecordType.ENDLIB),
        ]
        data = b"".join(pack_record(r) for r in records)
        unpacked = unpack_records(data)
        assert [r.record_type for r in unpacked] == [
            RecordType.HEADER,
            RecordType.LIBNAME,
            RecordType.XY,
            RecordType.ENDLIB,
        ]
        assert unpacked[1].payload == "TESTLIB"
        assert unpacked[2].payload == [0, 0, 10, 20]

    def test_stops_at_endlib(self):
        data = pack_record(make_record(RecordType.ENDLIB)) + b"\x00" * 10
        assert len(unpack_records(data)) == 1

    def test_null_padding_tolerated(self):
        data = pack_record(make_record(RecordType.HEADER, [600])) + b"\x00\x00"
        assert len(unpack_records(data)) == 1

    def test_unknown_record_type(self):
        import struct

        data = struct.pack(">HBB", 4, 0xEE, 0x00)
        with pytest.raises(GdsiiError):
            unpack_records(data)

    def test_wrong_data_type_for_record(self):
        import struct

        # LIBNAME must carry ASCII, not INT16.
        data = struct.pack(">HBB", 6, RecordType.LIBNAME, DataType.INT16) + b"\x00\x01"
        with pytest.raises(GdsiiError):
            unpack_records(data)

    def test_truncated_record_raises(self):
        import struct

        data = struct.pack(">HBB", 100, RecordType.HEADER, DataType.INT16)
        with pytest.raises(GdsiiError):
            unpack_records(data)

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.gpu import Device, OpKind


class TestStreamsAndRecording:
    def test_memcpy_round_trip(self):
        device = Device()
        stream = device.create_stream()
        data = np.arange(10)
        on_device = stream.memcpy_h2d(data)
        back = stream.memcpy_d2h(on_device)
        assert np.array_equal(back, data)
        assert on_device is not data  # a real copy, as a PCIe transfer would be

    def test_ops_recorded_in_order(self):
        device = Device()
        stream = device.create_stream()
        stream.memcpy_h2d(np.arange(4))
        stream.launch("k", lambda: 42)
        device.record_host("prep", 0.001)
        kinds = [op.kind for op in device.ops]
        assert kinds == [OpKind.H2D, OpKind.KERNEL, OpKind.HOST]
        assert [op.seq for op in device.ops] == [0, 1, 2]

    def test_launch_returns_kernel_result(self):
        device = Device()
        stream = device.create_stream()
        assert stream.launch("add", lambda a, b: a + b, 2, 3) == 5

    def test_bytes_accounted(self):
        device = Device()
        stream = device.create_stream()
        stream.memcpy_h2d(np.zeros(100, dtype=np.int64))
        assert device.ops[0].bytes == 800

    def test_unknown_stream_lookup(self):
        with pytest.raises(DeviceError):
            Device().stream(3)

    def test_reset(self):
        device = Device()
        stream = device.create_stream()
        stream.launch("k", lambda: None)
        device.reset()
        assert device.ops == []


class TestAsyncTimeline:
    def test_device_ops_overlap_host(self):
        device = Device()
        stream = device.create_stream()
        # Hand-craft a record: host 10ms, then an async kernel of 8ms issued
        # before more host work of 8ms -> async makespan ~18ms, serial 26ms.
        device.record_host("a", 0.010)
        device._record(OpKind.KERNEL, "k", stream.stream_id, 0.008)
        device.record_host("b", 0.008)
        summary = device.timeline().summarize()
        assert summary.serial_seconds == pytest.approx(0.026)
        assert summary.async_seconds == pytest.approx(0.018)
        assert 0 < summary.overlap_savings < 1

    def test_same_stream_serializes(self):
        device = Device()
        stream = device.create_stream()
        device._record(OpKind.KERNEL, "k1", stream.stream_id, 0.010)
        device._record(OpKind.KERNEL, "k2", stream.stream_id, 0.010)
        summary = device.timeline().summarize()
        assert summary.async_seconds == pytest.approx(0.020)

    def test_two_streams_overlap(self):
        device = Device()
        s0 = device.create_stream()
        s1 = device.create_stream()
        device._record(OpKind.KERNEL, "k1", s0.stream_id, 0.010)
        device._record(OpKind.KERNEL, "k2", s1.stream_id, 0.010)
        summary = device.timeline().summarize()
        assert summary.async_seconds == pytest.approx(0.010)
        assert device.timeline().per_stream_seconds() == {
            0: pytest.approx(0.010),
            1: pytest.approx(0.010),
        }

    def test_empty_timeline(self):
        summary = Device().timeline().summarize()
        assert summary.serial_seconds == 0.0 and summary.overlap_savings == 0.0

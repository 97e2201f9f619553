import numpy as np
import pytest

from repro.gpu import Device


class TestCopiesAndLaunches:
    def test_memcpy_copies(self):
        device = Device()
        data = np.arange(10)
        on_device = device.memcpy_h2d(data)
        assert np.array_equal(on_device, data)
        assert on_device is not data  # a real copy, as a PCIe transfer would be

    def test_copies_and_launches_counted(self):
        device = Device()
        device.memcpy_h2d(np.arange(4))
        device.launch(lambda: 42)
        counters = device.counters()
        assert counters["h2d_copies"] == 1
        assert counters["kernel_launches"] == 1

    def test_launch_returns_kernel_result(self):
        device = Device()
        assert device.launch(lambda a, b: a + b, 2, 3) == 5

    def test_bytes_accounted(self):
        device = Device()
        device.memcpy_h2d(np.zeros(100, dtype=np.int64))
        device.memcpy_h2d(np.zeros(3, dtype=np.int32)[::-1])  # non-contiguous view
        assert device.counters()["h2d_bytes"] == 812

    def test_counters_start_at_zero(self):
        assert Device().counters() == {
            "kernel_launches": 0,
            "h2d_copies": 0,
            "h2d_bytes": 0,
        }

    def test_counters_are_a_snapshot(self):
        device = Device()
        snapshot = device.counters()
        device.launch(lambda: None)
        snapshot["h2d_copies"] = 99
        assert snapshot["kernel_launches"] == 0
        assert device.counters()["kernel_launches"] == 1
        assert device.counters()["h2d_copies"] == 0

    def test_launch_passes_keyword_arguments(self):
        device = Device()
        assert device.launch(lambda a, *, scale: a * scale, 4, scale=3) == 12

    def test_failed_launch_is_not_counted(self):
        device = Device()

        def faulting_kernel():
            raise ValueError("bad lanes")

        with pytest.raises(ValueError, match="bad lanes"):
            device.launch(faulting_kernel)
        assert device.counters()["kernel_launches"] == 0

    def test_non_contiguous_copy_lands_contiguous(self):
        device = Device()
        data = np.arange(12).reshape(3, 4)[:, ::2]
        on_device = device.memcpy_h2d(data)
        assert on_device.flags["C_CONTIGUOUS"]
        assert np.array_equal(on_device, data)
        assert not np.shares_memory(on_device, data)

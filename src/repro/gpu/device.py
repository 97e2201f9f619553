"""The simulated GPU device: host-to-device copies, kernel launches, counters.

The paper's parallel mode runs CUDA kernels on a GPU (§IV-E). With no GPU
available, this module keeps the same *program structure* over NumPy:
kernels are vectorised array programs executed eagerly on the host, and
every host-to-device copy is a real array copy. Work is issued in order on
one implicit stream: no kernel result depends on which stream issued it,
and the paper leaves stream overlap (§V-C) to future work. The device
counts what reports print: kernel launches, H2D copies and H2D bytes.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np


class Device:
    """The simulated device: issues copies and launches, counts them."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {
            "kernel_launches": 0,
            "h2d_copies": 0,
            "h2d_bytes": 0,
        }

    def memcpy_h2d(self, array: np.ndarray) -> np.ndarray:
        """Host-to-device copy (simulated: a real array copy)."""
        device_array = np.ascontiguousarray(array)
        if device_array is array:  # already contiguous: model the copy cost
            device_array = array.copy()
        self._counters["h2d_copies"] += 1
        self._counters["h2d_bytes"] += device_array.nbytes
        return device_array

    def launch(self, kernel: Callable, *args, **kwargs):
        """Launch a kernel; returns the kernel's result."""
        result = kernel(*args, **kwargs)
        self._counters["kernel_launches"] += 1
        return result

    def counters(self) -> Dict[str, int]:
        """Cumulative launch/copy accounting: kernel launches, H2D copies
        and H2D bytes."""
        return dict(self._counters)

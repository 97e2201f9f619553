"""Simulated GPU device, streams, and an asynchronous-execution timeline.

The paper's parallel mode runs CUDA kernels and hides latency with streams
and asynchronous copies (§V-C). With no GPU available, this module provides
the same *program structure* over NumPy: kernels are vectorised array
programs executed eagerly on the host, but every operation — host-to-device
copy, kernel launch, device-to-host copy, host preprocessing — is recorded
with its issue order, stream, and measured duration.

:class:`AsyncTimeline` then replays the record under the CUDA execution
model (host issues asynchronously; ops on one stream serialize; ops on
different streams overlap with each other and with host work) to compute the
makespan the same schedule would achieve with a real asynchronous device.
This reproduces the §V-C analysis — e.g. that preprocessing of row *i+1*
overlaps the device checks of row *i* — which the paper itself defers to
future work ("runtime profiling and visualization ... left to future work").
"""

from __future__ import annotations

import dataclasses
import enum
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import DeviceError


class OpKind(enum.Enum):
    """Categories of recorded operations."""

    H2D = "h2d"
    D2H = "d2h"
    KERNEL = "kernel"
    HOST = "host"


@dataclasses.dataclass(frozen=True)
class OpRecord:
    """One recorded operation."""

    seq: int
    kind: OpKind
    name: str
    stream: Optional[int]  # None for host-side work
    seconds: float
    bytes: int = 0
    items: int = 0


class Stream:
    """An in-order queue of device operations (the CUDA stream analog)."""

    def __init__(self, device: "Device", stream_id: int) -> None:
        self.device = device
        self.stream_id = stream_id

    def memcpy_h2d(self, array: np.ndarray, *, name: str = "h2d") -> np.ndarray:
        """Asynchronous host-to-device copy (simulated: a real array copy)."""
        start = time.perf_counter()
        device_array = np.ascontiguousarray(array)
        if device_array is array:  # already contiguous: model the copy cost
            device_array = array.copy()
        seconds = time.perf_counter() - start
        self.device._record(OpKind.H2D, name, self.stream_id, seconds, device_array.nbytes)
        return device_array

    def memcpy_d2h(self, array: np.ndarray, *, name: str = "d2h") -> np.ndarray:
        """Asynchronous device-to-host copy."""
        start = time.perf_counter()
        host_array = array.copy()
        seconds = time.perf_counter() - start
        self.device._record(OpKind.D2H, name, self.stream_id, seconds, host_array.nbytes)
        return host_array

    def launch(self, name: str, kernel: Callable, *args, items: int = 0, **kwargs):
        """Launch a kernel on this stream; returns the kernel's result."""
        start = time.perf_counter()
        result = kernel(*args, **kwargs)
        seconds = time.perf_counter() - start
        self.device._record(OpKind.KERNEL, name, self.stream_id, seconds, 0, items)
        return result

    def __repr__(self) -> str:
        return f"Stream({self.stream_id} on {self.device.name!r})"


class Device:
    """The simulated device: owns streams and the operation record."""

    def __init__(self, name: str = "sim-gpu") -> None:
        self.name = name
        self.ops: List[OpRecord] = []
        self._streams: List[Stream] = []
        self._seq = 0
        self._counters: Dict[str, int] = self._zero_counters()

    @staticmethod
    def _zero_counters() -> Dict[str, int]:
        return {
            "kernel_launches": 0,
            "h2d_copies": 0,
            "h2d_bytes": 0,
            "d2h_copies": 0,
            "d2h_bytes": 0,
        }

    def create_stream(self) -> Stream:
        stream = Stream(self, len(self._streams))
        self._streams.append(stream)
        return stream

    def stream(self, stream_id: int) -> Stream:
        try:
            return self._streams[stream_id]
        except IndexError:
            raise DeviceError(f"no stream {stream_id} on device {self.name!r}") from None

    @property
    def num_streams(self) -> int:
        return len(self._streams)

    def record_host(self, name: str, seconds: float, *, items: int = 0) -> None:
        """Record host-side work interleaved with device ops (for the timeline)."""
        self._record(OpKind.HOST, name, None, seconds, 0, items)

    def _record(
        self,
        kind: OpKind,
        name: str,
        stream: Optional[int],
        seconds: float,
        nbytes: int = 0,
        items: int = 0,
    ) -> None:
        self.ops.append(OpRecord(self._seq, kind, name, stream, seconds, nbytes, items))
        self._seq += 1
        if kind is OpKind.KERNEL:
            self._counters["kernel_launches"] += 1
        elif kind is OpKind.H2D:
            self._counters["h2d_copies"] += 1
            self._counters["h2d_bytes"] += nbytes
        elif kind is OpKind.D2H:
            self._counters["d2h_copies"] += 1
            self._counters["d2h_bytes"] += nbytes

    def counters(self) -> Dict[str, int]:
        """Cumulative launch/copy accounting (kernel launches, H2D/D2H copies
        and bytes) — the batching benchmark's primary metric."""
        return dict(self._counters)

    @property
    def h2d_bytes(self) -> int:
        return self._counters["h2d_bytes"]

    def reset(self) -> None:
        self.ops.clear()
        self._seq = 0
        self._counters = self._zero_counters()

    def timeline(self) -> "AsyncTimeline":
        return AsyncTimeline(list(self.ops))

    def __repr__(self) -> str:
        return f"Device({self.name!r}, {self.num_streams} streams, {len(self.ops)} ops)"


@dataclasses.dataclass
class TimelineSummary:
    """Aggregate view of a replayed timeline."""

    serial_seconds: float  # everything end-to-end on one queue
    async_seconds: float  # CUDA-model makespan (streams overlap host)
    host_seconds: float
    device_seconds: float
    copy_bytes: int

    @property
    def overlap_savings(self) -> float:
        """Fraction of serial time hidden by asynchronous execution."""
        if self.serial_seconds == 0.0:
            return 0.0
        return 1.0 - self.async_seconds / self.serial_seconds


class AsyncTimeline:
    """Replays an op record under the asynchronous (CUDA-like) execution model.

    Rules: the host walks the record in issue order; HOST ops advance the
    host clock; device ops (H2D/KERNEL/D2H) are *issued* at the current host
    clock but execute on their stream — starting at
    ``max(issue_time, stream_ready_time)`` — without blocking the host.
    """

    def __init__(self, ops: List[OpRecord]) -> None:
        self.ops = ops

    def summarize(self) -> TimelineSummary:
        host_clock = 0.0
        stream_ready: Dict[int, float] = {}
        makespan = 0.0
        host_total = 0.0
        device_total = 0.0
        copy_bytes = 0
        for op in self.ops:
            if op.kind is OpKind.HOST:
                host_clock += op.seconds
                host_total += op.seconds
                makespan = max(makespan, host_clock)
            else:
                assert op.stream is not None
                begin = max(host_clock, stream_ready.get(op.stream, 0.0))
                end = begin + op.seconds
                stream_ready[op.stream] = end
                device_total += op.seconds
                copy_bytes += op.bytes
                makespan = max(makespan, end)
        return TimelineSummary(
            serial_seconds=host_total + device_total,
            async_seconds=makespan,
            host_seconds=host_total,
            device_seconds=device_total,
            copy_bytes=copy_bytes,
        )

    def per_stream_seconds(self) -> Dict[int, float]:
        result: Dict[int, float] = {}
        for op in self.ops:
            if op.stream is not None:
                result[op.stream] = result.get(op.stream, 0.0) + op.seconds
        return result

"""Simulated GPU substrate (paper §IV-E, §V-C).

Device/stream/timeline model (:mod:`.device`), stream-ordered memory
allocator (:mod:`.memory`), execution policies standing in for the paper's
type-trait dispatch (:mod:`.executor`), and the NumPy SPMD check kernels
(:mod:`.kernels`). See DESIGN.md §1 for why NumPy vectorisation preserves
the paper's GPU-vs-CPU behavioural shape. The shared-memory arena
(:mod:`.shmem`) and buffer compression (:mod:`.compression`) are imported by
their users only: ``multiprocessing.shared_memory`` alone is a third of
what importing the parallel mode costs.
"""

from .device import AsyncTimeline, Device, OpKind, OpRecord, Stream, TimelineSummary
from .executor import (
    ExecutionPolicy,
    SequencedPolicy,
    StreamExecutor,
    is_device_policy,
    seq,
)
from .kernels import (
    EdgeBuffer,
    PairHits,
    VertexBuffer,
    kernel_area,
    kernel_corner_pairs_segmented,
    kernel_enclosure_margins,
    kernel_pairs_bruteforce,
    kernel_pairs_bruteforce_segmented,
    kernel_pairs_sweep,
    kernel_pairs_sweep_segmented,
    kernel_sweep_check,
    kernel_sweep_ranges,
    pack_edges,
    pack_vertices,
    reduce_enclosure_best,
)
from .memory import AllocatorStats, DeviceBuffer, StreamOrderedAllocator

__all__ = [
    "AllocatorStats",
    "AsyncTimeline",
    "Device",
    "DeviceBuffer",
    "EdgeBuffer",
    "ExecutionPolicy",
    "OpKind",
    "OpRecord",
    "PairHits",
    "SequencedPolicy",
    "Stream",
    "StreamExecutor",
    "StreamOrderedAllocator",
    "TimelineSummary",
    "VertexBuffer",
    "is_device_policy",
    "kernel_area",
    "kernel_corner_pairs_segmented",
    "kernel_enclosure_margins",
    "kernel_pairs_bruteforce",
    "kernel_pairs_bruteforce_segmented",
    "kernel_pairs_sweep",
    "kernel_pairs_sweep_segmented",
    "kernel_sweep_check",
    "kernel_sweep_ranges",
    "pack_edges",
    "pack_vertices",
    "reduce_enclosure_best",
    "seq",
]

"""Simulated GPU substrate (paper §IV-E).

The device model (:mod:`.device`: copies, launches and their counters) and
the NumPy SPMD check kernels (:mod:`.kernels`). See DESIGN.md §1 for why
NumPy vectorisation preserves the paper's GPU-vs-CPU behavioural shape.
"""

from .device import Device
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

__all__ = [
    "Device",
    "EdgeBuffer",
    "PairHits",
    "VertexBuffer",
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
]

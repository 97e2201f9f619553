"""X-Check reimplementation (paper §VI; X-Check = DAC'22 GPU-accelerated DRC).

The paper reimplements X-Check's vertical sweeping algorithm (X-Check §4.1)
as its GPU baseline; we do the same on the shared simulated device:

1. flatten the layout (no hierarchy — instance polygons are materialized
   one by one on the host, which is the honest cost of a non-hierarchical
   GPU checker and exactly where OpenDRC's hierarchical buffer construction
   wins);
2. pack every edge into one global array and copy it to the device;
3. run the two-phase parallel sweep: a scan computes each edge's check
   range, then each edge checks all edges in its range.

X-Check supports width, spacing, and enclosure; it *cannot* perform area
checks (its Table I column is empty in the paper), which
:meth:`XCheckChecker.run` reproduces by raising :class:`UnsupportedRuleError`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..checks.base import Violation, ViolationKind
from ..core.results import CheckReport, CheckResult
from ..core.rules import Rule, RuleKind
from ..errors import ReproError
from ..geometry import Polygon, Rect
from ..gpu.device import Device
from ..gpu.kernels import (
    kernel_enclosure_margins,
    kernel_pairs_sweep,
    pack_edges,
    reduce_enclosure_best,
)
from ..layout.flatten import flatten_layer, polygon_rings
from ..layout.library import Layout
from ..spatial.sweepline import iter_bipartite_overlaps


class UnsupportedRuleError(ReproError):
    """X-Check cannot execute this rule kind (area checks, predicates)."""


class XCheckChecker:
    """Flat GPU checker following X-Check's vertical sweeping design."""

    def __init__(self, layout: Layout, *, device: Optional[Device] = None) -> None:
        self.layout = layout
        self.device = device if device is not None else Device()
        self.stream = self.device.create_stream()
        self._flat_cache: Dict[int, List[Polygon]] = {}

    def supports(self, rule: Rule) -> bool:
        return rule.kind in (RuleKind.WIDTH, RuleKind.SPACING, RuleKind.ENCLOSURE)

    def run(self, rule: Rule) -> Tuple[List[Violation], float]:
        """Execute one rule; returns (violations, seconds)."""
        if not self.supports(rule):
            raise UnsupportedRuleError(
                f"X-Check cannot execute {rule.kind.value} rules (paper Table I)"
            )
        start = time.perf_counter()
        if rule.kind is RuleKind.ENCLOSURE:
            violations = self._enclosure(rule.layer, rule.other_layer, rule.value)
        else:
            violations = self._pairs(
                rule.layer, rule.value, want_width=rule.kind is RuleKind.WIDTH
            )
        return violations, time.perf_counter() - start

    def check(self, rules: Sequence[Rule]) -> CheckReport:
        results = []
        for rule in rules:
            violations, seconds = self.run(rule)
            results.append(CheckResult(rule=rule, violations=violations, seconds=seconds))
        return CheckReport(self.layout.name, "xcheck", results)

    # -- internals ------------------------------------------------------------

    def _flat(self, layer: int) -> List[Polygon]:
        if layer not in self._flat_cache:
            host_start = time.perf_counter()
            self._flat_cache[layer] = flatten_layer(self.layout, layer)
            self.device.record_host(
                f"flatten-L{layer}", time.perf_counter() - host_start
            )
        return self._flat_cache[layer]

    def clear_cache(self) -> None:
        """Drop flattening caches (benchmarks charge flattening per run)."""
        self._flat_cache.clear()

    def _pairs(self, layer: int, value: int, *, want_width: bool) -> List[Violation]:
        polygons = self._flat(layer)
        host_start = time.perf_counter()
        buffers = pack_edges(polygons)
        self.device.record_host("pack-edges", time.perf_counter() - host_start)
        out: List[Violation] = []
        kind = ViolationKind.WIDTH if want_width else ViolationKind.SPACING
        for buf in (buffers["v"], buffers["h"]):
            if len(buf) < 2:
                continue
            device_buf = type(buf)(
                buf.vertical,
                self.stream.memcpy_h2d(buf.fixed, name="edges.fixed"),
                self.stream.memcpy_h2d(buf.lo, name="edges.lo"),
                self.stream.memcpy_h2d(buf.hi, name="edges.hi"),
                self.stream.memcpy_h2d(buf.interior, name="edges.interior"),
                self.stream.memcpy_h2d(buf.poly, name="edges.poly"),
            )
            hits = self.stream.launch(
                "xcheck-sweep",
                kernel_pairs_sweep,
                device_buf,
                value,
                want_width=want_width,
                items=len(buf),
            )
            for k in range(len(hits)):
                out.append(
                    Violation(
                        kind=kind,
                        layer=layer,
                        region=Rect(
                            int(hits.xlo[k]), int(hits.ylo[k]),
                            int(hits.xhi[k]), int(hits.yhi[k]),
                        ),
                        measured=int(hits.measured[k]),
                        required=value,
                    )
                )
        return out

    def _enclosure(self, via_layer: int, metal_layer: int, value: int) -> List[Violation]:
        vias = self._flat(via_layer)
        metals = self._flat(metal_layer)
        if not vias:
            return []
        all_rect = all(p.is_rectangle for p in vias) and all(
            p.is_rectangle for p in metals
        )
        if not all_rect:
            from ..checks.enclosure import check_enclosure

            return check_enclosure(
                polygon_rings(vias), polygon_rings(metals), via_layer, metal_layer, value
            )
        windows = [v.mbr.inflated(value) for v in vias]
        metal_rects = [m.mbr for m in metals]
        pairs = list(iter_bipartite_overlaps(windows, metal_rects))
        via_arr = np.asarray([tuple(v.mbr) for v in vias], dtype=np.int64)
        if metal_rects:
            metal_arr = np.asarray([tuple(m) for m in metal_rects], dtype=np.int64)
        else:
            metal_arr = np.zeros((0, 4), dtype=np.int64)
        pair_via = np.asarray([i for i, _ in pairs], dtype=np.int64)
        pair_metal = np.asarray([j for _, j in pairs], dtype=np.int64)
        margins = self.stream.launch(
            "xcheck-enclosure",
            kernel_enclosure_margins,
            self.stream.memcpy_h2d(via_arr, name="via.rects"),
            self.stream.memcpy_h2d(metal_arr, name="metal.rects") if len(metal_arr) else metal_arr,
            pair_via,
            pair_metal,
            items=len(pair_via),
        )
        best = reduce_enclosure_best(len(vias), pair_via, margins)
        out: List[Violation] = []
        for index, margin in enumerate(best):
            if int(margin) >= value:
                continue
            out.append(
                Violation(
                    kind=ViolationKind.ENCLOSURE,
                    layer=via_layer,
                    other_layer=metal_layer,
                    region=vias[index].mbr.inflated(value),
                    measured=max(int(margin), 0),
                    required=value,
                )
            )
        return out

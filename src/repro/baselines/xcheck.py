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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.results import CheckReport, CheckResult
from ..core.rules import Rule, RuleKind
from ..errors import ReproError
from ..geometry import Polygon
from ..gpu.device import Device
from ..gpu.kernels import (
    PairHits,
    kernel_enclosure_margins,
    kernel_pairs_sweep,
    pack_edges,
    reduce_enclosure_best,
)
from ..layout.flatten import flatten_layer, polygon_rings
from ..layout.library import Layout
from ..spatial.sweepline import iter_bipartite_overlaps
from ..violation_table import ViolationTable


class UnsupportedRuleError(ReproError):
    """X-Check cannot execute this rule kind (area checks, predicates)."""


class XCheckChecker:
    """Flat GPU checker following X-Check's vertical sweeping design."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self.device = Device()
        self._flat_cache: Dict[int, List[Polygon]] = {}

    def supports(self, rule: Rule) -> bool:
        return rule.kind in (RuleKind.WIDTH, RuleKind.SPACING, RuleKind.ENCLOSURE)

    def run(self, rule: Rule) -> Tuple[ViolationTable, float]:
        """Execute one rule; returns (violation table, seconds)."""
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
            self._flat_cache[layer] = flatten_layer(self.layout, layer)
        return self._flat_cache[layer]

    def clear_cache(self) -> None:
        """Drop flattening caches (benchmarks charge flattening per run)."""
        self._flat_cache.clear()

    def _pairs(self, layer: int, value: int, *, want_width: bool) -> ViolationTable:
        polygons = self._flat(layer)
        buffers = pack_edges(polygons)
        found: List[PairHits] = []
        for buf in (buffers["v"], buffers["h"]):
            if len(buf) < 2:
                continue
            device_buf = type(buf)(
                buf.vertical,
                self.device.memcpy_h2d(buf.fixed),
                self.device.memcpy_h2d(buf.lo),
                self.device.memcpy_h2d(buf.hi),
                self.device.memcpy_h2d(buf.interior),
                self.device.memcpy_h2d(buf.poly),
            )
            found.append(
                self.device.launch(kernel_pairs_sweep, device_buf, value, want_width=want_width)
            )
        hits = PairHits.concatenate(found)
        return ViolationTable.from_columns(
            layer, "width" if want_width else "spacing",
            hits.xlo, hits.ylo, hits.xhi, hits.yhi, hits.measured, value,
        )

    def _enclosure(self, via_layer: int, metal_layer: int, value: int) -> ViolationTable:
        vias = self._flat(via_layer)
        metals = self._flat(metal_layer)
        if not vias:
            return ViolationTable.from_rows(())
        all_rect = all(p.is_rectangle for p in vias) and all(
            p.is_rectangle for p in metals
        )
        if not all_rect:
            from ..checks.enclosure import check_enclosure

            return ViolationTable.from_rows(
                check_enclosure(
                    polygon_rings(vias), polygon_rings(metals), via_layer, metal_layer, value
                )
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
        margins = self.device.launch(
            kernel_enclosure_margins,
            self.device.memcpy_h2d(via_arr),
            self.device.memcpy_h2d(metal_arr) if len(metal_arr) else metal_arr,
            pair_via,
            pair_metal,
        )
        best = reduce_enclosure_best(len(vias), pair_via, margins)
        failing = np.flatnonzero(best < value)
        regions = via_arr[failing] + np.asarray([-value, -value, value, value], dtype=np.int64)
        return ViolationTable.from_columns(
            via_layer, "enclosure", *regions.T, np.maximum(best[failing], 0), value,
            other=metal_layer,
        )

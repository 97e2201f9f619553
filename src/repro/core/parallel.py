"""The parallel backend (paper §IV-E): row-by-row checks on the simulated GPU.

After the adaptive row partition, cells in different rows cannot produce
violations together, so rows are independent GPU tasks. All rows' items are
concatenated into one segmented buffer (a ``segment`` array carries the row
id) and a *single* launch per orientation per lane evaluates every row at
once, the kernels enumerating in-segment pairs only — R rows cost one
copy set and one or two launches instead of R of each. The §IV-E executor
choice survives fusion as a *mixed lane policy*: segments at or below the
brute-force threshold ride the batched brute-force lane, larger ones the
segmented sweepline lane.

That launch has one definition per rule kind (:func:`launch_pair_rows`,
:func:`launch_corner_rows`, :func:`launch_enclosure_rows`), reached through
:func:`run_row_task`: a pure function of the segmented buffers, so the
in-process backend calls it on all rows and the multiprocess backend's
workers call it on a subset of rows (:func:`select_rows`).

Device work is issued through :class:`~repro.gpu.executor.StreamExecutor`
policies (Listing 2's stream executor): one executor wraps each stream, and
every copy/launch in this module goes through it, so swapping the executor
swaps where the work lands.

Host-side packing artifacts — level items, row partitions, per-definition
packers, packed per-row and fused buffers — live in the plan's
:class:`~repro.core.plan.PackCache`, keyed by layer and the stable partition
signature, so the second rule touching a layer pays zero host packing.

Intra-polygon rules do not need rows: they run one batched kernel over the
*unique cell definitions* (the hierarchy memoisation of §IV-C) and
instantiate the per-definition hits through every placement.

Per-rule-kind dispatch resolves through :func:`~repro.core.plan.kind_spec`;
kinds with no data-parallel strategy (``spec.parallel is None``) delegate to
a sequential backend sharing this plan's caches.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..checks.base import Violation, ViolationKind
from ..checks.enclosure import enclosure_pair_violations
from ..geometry import IDENTITY, Polygon, Rect, Transform
from ..hierarchy.edgepack import (
    EdgeBufferPair,
    HierarchicalEdgePacker,
    HierarchicalRectPacker,
    RectBuffer,
    concat_buffers as concat_edge_buffers,
    concat_segmented,
    corners_from_arrays,
    corners_to_arrays,
    edge_pair_from_arrays,
    edge_pair_to_arrays,
    rect_rows_from_arrays,
    rect_rows_to_arrays,
)
from ..hierarchy.pruning import LevelItem
from ..partition.rows import margin_for_rule
from ..spatial.sweepline import iter_bipartite_overlaps
from ..gpu.device import Device
from ..gpu.executor import StreamExecutor
from ..gpu.kernels import (
    CornerBuffer,
    CornerHits,
    EdgeBuffer,
    PairHits,
    kernel_area,
    kernel_corner_pairs_segmented,
    kernel_enclosure_candidates,
    kernel_enclosure_margins,
    kernel_pairs_bruteforce,
    kernel_pairs_bruteforce_segmented,
    kernel_pairs_sweep,
    kernel_pairs_sweep_segmented,
    pack_corners,
    pack_edges,
    pack_vertices,
    reduce_enclosure_best,
)
from ..util.profile import (
    PHASE_EDGE_CHECKS,
    PHASE_OTHER,
    PHASE_PARTITION,
    PHASE_SWEEPLINE,
    PhaseProfile,
)
from .packstore import store_key
from .plan import DEFAULT_BRUTE_FORCE_THRESHOLD, CheckPlan, PackCache, kind_spec
from .rules import Rule, RuleKind

__all__ = [
    "DEFAULT_BRUTE_FORCE_THRESHOLD",
    "EnclosureBuffer",
    "PackCache",
    "ParallelBackend",
    "ROW_KINDS",
    "RowWork",
    "corner_hits_to_violations",
    "enclosure_margins_to_violations",
    "pair_hits_to_violations",
    "run_row_task",
    "select_rows",
]

_INT = np.int64


def pair_hits_to_violations(
    hits: Sequence[PairHits],
    kind: ViolationKind,
    layer: int,
    required: int,
    *,
    other_layer: Optional[int] = None,
) -> List[Violation]:
    """Host-side conversion of pair-kernel hits to violation markers."""
    batch = PairHits.concatenate(list(hits))
    if len(batch) == 0:
        return []
    regions = np.stack([batch.xlo, batch.ylo, batch.xhi, batch.yhi], axis=1)
    return [
        Violation(
            kind=kind,
            layer=layer,
            other_layer=other_layer,
            region=Rect(*coords),
            measured=measured,
            required=required,
        )
        for coords, measured in zip(regions.tolist(), batch.measured.tolist())
    ]


def corner_hits_to_violations(
    hits: CornerHits, layer: int, value: int
) -> List[Violation]:
    """Corner-kernel hits to violation markers."""
    if len(hits) == 0:
        return []
    regions = np.stack(
        [
            np.minimum(hits.ax, hits.bx),
            np.minimum(hits.ay, hits.by),
            np.maximum(hits.ax, hits.bx),
            np.maximum(hits.ay, hits.by),
        ],
        axis=1,
    )
    return [
        Violation(
            kind=ViolationKind.CORNER,
            layer=layer,
            region=Rect(*coords),
            measured=measured,
            required=value,
        )
        for coords, measured in zip(regions.tolist(), hits.measured.tolist())
    ]


def enclosure_margins_to_violations(
    via_rects: np.ndarray,
    best: np.ndarray,
    via_layer: int,
    metal_layer: int,
    value: int,
) -> List[Violation]:
    """Reduced per-via enclosure margins to violation markers."""
    failing = np.flatnonzero(best < value)
    return [
        Violation(
            kind=ViolationKind.ENCLOSURE,
            layer=via_layer,
            other_layer=metal_layer,
            region=Rect(*coords).inflated(value),
            measured=max(margin, 0),
            required=value,
        )
        for coords, margin in zip(
            via_rects[failing].tolist(), best[failing].tolist()
        )
    ]


# ---------------------------------------------------------------------------
# The fused row launch: one definition per rule kind
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EnclosureBuffer:
    """The all-rectangle rows of an enclosure rule, fused.

    Via and metal MBRs as ``(n, 4)`` arrays, each with the row id of every
    rect (the same role ``segment`` plays on edge and corner buffers).
    """

    via_rects: np.ndarray
    via_segment: np.ndarray
    metal_rects: np.ndarray
    metal_segment: np.ndarray


@dataclasses.dataclass
class RowWork:
    """What the row partition leaves to execute for one rule.

    ``buffers`` are the fused segmented buffers of every row with device
    work (``None`` when there is none); ``weights[row]`` counts that row's
    items in them, so a zero marks a row the buffers do not hold.
    ``host_rows`` are the leftovers: ``(via items, metal items)`` of each
    enclosure row with rectilinear (non-rectangle) geometry, which keeps
    the exact host fallback.
    """

    buffers: Any = None
    weights: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(0, dtype=_INT)
    )
    host_rows: List[Tuple[List[LevelItem], List[LevelItem]]] = dataclasses.field(
        default_factory=list
    )


def _row_weights(num_rows: int, *segments: Optional[np.ndarray]) -> np.ndarray:
    weights = np.zeros(num_rows, dtype=_INT)
    for segment in segments:
        if segment is not None and len(segment):
            weights += np.bincount(segment, minlength=num_rows)
    return weights


def select_rows(buffers: Any, rows: Sequence[int]) -> Any:
    """The part of a rule's fused buffers that holds only the given rows.

    Rows are whole segments, so a launch over the selection makes the same
    per-row lane choice, and finds the same hits in those rows, as the
    launch over everything.
    """
    rowset = np.asarray(rows, dtype=_INT)

    def cut(buf):
        if buf.segment is None:  # empty: nothing was ever segmented
            return buf
        return buf.take(np.flatnonzero(np.isin(buf.segment, rowset)))

    if isinstance(buffers, EdgeBufferPair):
        return EdgeBufferPair(
            cut(buffers.vertical), cut(buffers.horizontal), buffers.num_polygons
        )
    if isinstance(buffers, EnclosureBuffer):
        via = np.isin(buffers.via_segment, rowset)
        metal = np.isin(buffers.metal_segment, rowset)
        return EnclosureBuffer(
            buffers.via_rects[via], buffers.via_segment[via],
            buffers.metal_rects[metal], buffers.metal_segment[metal],
        )
    return cut(buffers)


#: Counter deltas every row launch reports. ``kernels_*`` count the row
#: segments handed to each §IV-E executor and ``fused_segments`` the row
#: segments launched at all, so all three sum to the same totals however
#: the rows are split across launches; ``fused_launches`` counts launches.
ROW_COUNTERS = (
    "kernels_bruteforce", "kernels_sweepline", "fused_launches", "fused_segments"
)


def _distinct_segments(segment: np.ndarray) -> int:
    """How many different row-segment ids (non-negative ints) ``segment`` holds.

    Not ``np.unique(segment).size``: a plain ``np.unique`` imports
    ``numpy.ma`` on first use, 15-25 ms of a cold process for one integer.
    """
    return int(np.count_nonzero(np.bincount(segment)))


def launch_pair_rows(
    pair: EdgeBufferPair,
    value: int,
    threshold: int,
    executors: Sequence[StreamExecutor],
    profile: PhaseProfile,
) -> Tuple[List[PairHits], Dict[str, int]]:
    """One segmented launch per orientation per lane over fused edge rows.

    Vertical edges ride stream 0 and horizontal edges stream 1, keeping
    both streams busy within the single fused round. The §IV-E executor
    choice is a per-segment policy: segments at or below the brute-force
    threshold take the batched brute-force lane, larger ones the segmented
    sweepline lane.
    """
    counters = dict.fromkeys(ROW_COUNTERS, 0)
    hits: List[PairHits] = []
    for buf, stream in (
        (pair.vertical, executors[0]),
        (pair.horizontal, executors[1 % len(executors)]),
    ):
        if len(buf) < 2:
            continue
        seg = buf.segment
        with profile.phase(PHASE_OTHER):
            device_buf = EdgeBuffer(
                buf.vertical,
                stream.memcpy_h2d(buf.fixed, name="edges.fixed"),
                stream.memcpy_h2d(buf.lo, name="edges.lo"),
                stream.memcpy_h2d(buf.hi, name="edges.hi"),
                stream.memcpy_h2d(buf.interior, name="edges.interior"),
                stream.memcpy_h2d(buf.poly, name="edges.poly"),
                stream.memcpy_h2d(seg, name="edges.segment"),
            )
        small = np.bincount(seg)[seg] <= threshold
        lanes = (
            ("pairs-bruteforce-fused", kernel_pairs_bruteforce_segmented,
             "kernels_bruteforce", small),
            ("pairs-sweepline-fused", kernel_pairs_sweep_segmented,
             "kernels_sweepline", ~small),
        )
        for name, kernel, counter, mask in lanes:
            count = int(mask.sum())
            if count < 2:
                continue
            lane_buf = device_buf.take(np.flatnonzero(mask))
            segments = _distinct_segments(seg[mask])
            with profile.phase(PHASE_EDGE_CHECKS):
                counters[counter] += segments
                counters["fused_launches"] += 1
                counters["fused_segments"] += segments
                hits.append(
                    stream.launch(
                        name, kernel, lane_buf, value,
                        want_width=False, items=count,
                    )
                )
    return hits, counters


def launch_corner_rows(
    buf: CornerBuffer,
    value: int,
    threshold: int,
    executors: Sequence[StreamExecutor],
    profile: PhaseProfile,
) -> Tuple[CornerHits, Dict[str, int]]:
    """One segmented corner-pair launch over fused corner rows (one range-scan
    lane: ``threshold`` is taken for the shared launch signature only)."""
    counters = dict.fromkeys(ROW_COUNTERS, 0)
    if len(buf) < 2:
        return CornerHits.empty(), counters
    stream = executors[0]
    with profile.phase(PHASE_OTHER):
        device_buf = CornerBuffer(
            stream.memcpy_h2d(buf.x, name="corners.x"),
            stream.memcpy_h2d(buf.y, name="corners.y"),
            buf.qx,
            buf.qy,
            buf.poly,
            stream.memcpy_h2d(buf.segment, name="corners.segment"),
        )
    with profile.phase(PHASE_EDGE_CHECKS):
        counters["fused_launches"] += 1
        counters["fused_segments"] += _distinct_segments(buf.segment)
        hits = stream.launch(
            "corner-pairs-fused",
            kernel_corner_pairs_segmented,
            device_buf,
            value,
            items=len(buf),
        )
    return hits, counters


def launch_enclosure_rows(
    buf: EnclosureBuffer,
    value: int,
    threshold: int,
    executors: Sequence[StreamExecutor],
    profile: PhaseProfile,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """All-rectangle enclosure rows on the device: pair, measure, reduce.

    Returns the best (largest) enclosure margin found for each via. One
    banded-scan lane: ``threshold`` is for the shared launch signature only.
    """
    counters = dict.fromkeys(ROW_COUNTERS, 0)
    stream = executors[0]
    with profile.phase(PHASE_OTHER):
        via_dev = stream.memcpy_h2d(buf.via_rects, name="via.rects")
        via_seg = stream.memcpy_h2d(buf.via_segment, name="via.segment")
        metal_dev, metal_seg = buf.metal_rects, buf.metal_segment
        if len(metal_dev):
            metal_dev = stream.memcpy_h2d(metal_dev, name="metal.rects")
            metal_seg = stream.memcpy_h2d(metal_seg, name="metal.segment")
    counters["fused_launches"] += 1
    counters["fused_segments"] += _distinct_segments(buf.via_segment)
    with profile.phase(PHASE_SWEEPLINE):
        pair_via, pair_metal = stream.launch(
            "enclosure-candidates",
            kernel_enclosure_candidates,
            via_dev, metal_dev, value, via_seg, metal_seg,
            items=len(via_dev),
        )
    with profile.phase(PHASE_EDGE_CHECKS):
        margins = stream.launch(
            "enclosure-margins",
            kernel_enclosure_margins,
            via_dev, metal_dev, pair_via, pair_metal,
            items=len(pair_via),
        )
        best = stream.launch(
            "enclosure-reduce",
            reduce_enclosure_best,
            len(via_dev), pair_via, margins,
            items=len(via_dev),
        )
    return best, counters


#: Rule kind -> (launch, hits -> violations). The launches share one
#: signature — ``(buffers, rule value, brute-force threshold, stream
#: executors, profile) -> (hits, ROW_COUNTERS deltas)`` — and touch no
#: backend state, so parent and workers cannot disagree on what a row
#: task does.
_ROW_LAUNCHES: Dict[RuleKind, Tuple[Callable, Callable]] = {
    RuleKind.SPACING: (
        launch_pair_rows,
        lambda hits, pair, rule: pair_hits_to_violations(
            hits, ViolationKind.SPACING, rule.layer, rule.value
        ),
    ),
    RuleKind.CORNER_SPACING: (
        launch_corner_rows,
        lambda hits, buf, rule: corner_hits_to_violations(
            hits, rule.layer, rule.value
        ),
    ),
    RuleKind.ENCLOSURE: (
        launch_enclosure_rows,
        lambda best, buf, rule: enclosure_margins_to_violations(
            buf.via_rects, best, rule.layer, rule.other_layer, rule.value
        ),
    ),
}

#: Rule kinds executed as row tasks (and sharded by row across processes).
ROW_KINDS = tuple(_ROW_LAUNCHES)


def run_row_task(
    rule: Rule,
    buffers: Any,
    threshold: int,
    executors: Sequence[StreamExecutor],
    profile: PhaseProfile,
) -> Tuple[List[Violation], Dict[str, int]]:
    """Check the rows held by ``buffers`` against one rule.

    The whole definition of a row task: :class:`ParallelBackend` calls it
    with every row of the rule, a multiprocess shard with the rows
    :func:`select_rows` cut for it. Returns the violations plus the
    :data:`ROW_COUNTERS` deltas.
    """
    launch, to_violations = _ROW_LAUNCHES[rule.kind]
    hits, counters = launch(buffers, rule.value, threshold, executors, profile)
    return to_violations(hits, buffers, rule), counters


class ParallelBackend:
    """Executes a plan's rules with the row-based GPU algorithms."""

    def __init__(self, plan: CheckPlan, *, device: Optional[Device] = None) -> None:
        self.plan = plan
        self.layout = plan.layout
        self.tree = plan.tree
        self.caches = plan.caches
        options = plan.options
        self.subtree = self.caches.subtree
        self.device = device if device is not None else Device()
        self.executors = [
            StreamExecutor(self.device.create_stream())
            for _ in range(options.num_streams)
        ]
        self.brute_force_threshold = options.brute_force_threshold
        self.use_rows = options.use_rows
        self.pack_cache = self.caches.pack
        self.counters = dict.fromkeys(ROW_COUNTERS, 0)
        self.phase_seconds = {"pack_seconds": 0.0, "kernel_seconds": 0.0}
        self._pack_depth = 0
        self._sequential = None

    # -- rule dispatch ------------------------------------------------------

    def run(self, rule: Rule, profile: Optional[PhaseProfile] = None) -> List[Violation]:
        if profile is None:
            profile = PhaseProfile()
        spec = kind_spec(rule.kind)
        if spec.parallel is None:
            # Shape / predicate / region-algebra rules have no arithmetic
            # worth vectorising; reuse the sequential strategies over the
            # same plan caches.
            return self._fallback().run(rule, profile)
        if rule.kind in ROW_KINDS:
            return self.finish_rows(rule, self.row_work(rule, profile), profile)
        strategy = getattr(self, f"_run_{spec.parallel}")
        return strategy(rule, profile)

    def row_work(self, rule: Rule, profile: PhaseProfile) -> RowWork:
        """Partition and pack (through the caches) one row-kind rule."""
        return getattr(self, f"_{kind_spec(rule.kind).parallel}_rows")(rule, profile)

    def finish_rows(
        self, rule: Rule, work: RowWork, profile: PhaseProfile
    ) -> List[Violation]:
        """Execute prepared row work in this process: host rows, then the launch."""
        violations = self.run_host_rows(rule, work, profile)
        if work.buffers is not None:
            before = profile.seconds(PHASE_EDGE_CHECKS)
            found, counters = run_row_task(
                rule, work.buffers, self.brute_force_threshold, self.executors, profile
            )
            self.phase_seconds["kernel_seconds"] += (
                profile.seconds(PHASE_EDGE_CHECKS) - before
            )
            for key, value in counters.items():
                self.counters[key] += value
            violations.extend(found)
        return violations

    def stats(self) -> Dict[str, float]:
        """Executor-choice, device-traffic, fusion, and cache counters."""
        counters = self.device.counters()
        store = self.caches.store
        cache = store.counters() if store is not None else {}
        return dict(
            self.counters,
            kernel_launches=counters["kernel_launches"],
            h2d_copies=counters["h2d_copies"],
            h2d_bytes=counters["h2d_bytes"],
            d2h_copies=counters["d2h_copies"],
            pack_cache_hits=self.pack_cache.hits,
            pack_cache_misses=self.pack_cache.misses,
            cache_hits=cache.get("hits", 0),
            cache_misses=cache.get("misses", 0),
            cache_corrupt=cache.get("corrupt", 0),
            cache_bytes_read=cache.get("bytes_read", 0),
            cache_bytes_written=cache.get("bytes_written", 0),
            pack_seconds=self.phase_seconds["pack_seconds"],
            kernel_seconds=self.phase_seconds["kernel_seconds"],
        )

    def close(self) -> None:
        """Flush pack-store counter deltas (idempotent; engine calls this)."""
        store = self.caches.store
        if store is not None:
            store.persist_counters()

    # -- strategy entry points (bound by plan.KIND_SPECS) ----------------------

    def _run_width(self, rule: Rule, profile: PhaseProfile) -> List[Violation]:
        return self._width(rule.layer, rule.value, profile)

    def _run_area(self, rule: Rule, profile: PhaseProfile) -> List[Violation]:
        return self._area(rule.layer, rule.value, profile)

    # -- helpers --------------------------------------------------------------

    def _fallback(self):
        if self._sequential is None:
            from .sequential import SequentialBackend

            self._sequential = SequentialBackend(
                self.layout, tree=self.tree, caches=self.caches
            )
        return self._sequential

    def _stream(self, index: int) -> StreamExecutor:
        return self.executors[index % len(self.executors)]

    # -- phase timing --------------------------------------------------------

    @contextlib.contextmanager
    def _pack_timer(self):
        """Attribute elapsed time to ``pack_seconds`` (outermost scope only).

        Entered strictly inside *cold* build bodies — never around cache
        lookups — so a warm-start run (every artifact served from the memo
        or the pack store) reports exactly zero pack seconds. The depth
        guard keeps nested builds (fused pair -> per-row pairs) from double
        counting.
        """
        self._pack_depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._pack_depth -= 1
            if self._pack_depth == 0:
                self.phase_seconds["pack_seconds"] += time.perf_counter() - start

    @contextlib.contextmanager
    def _kernel_phase(self, profile: PhaseProfile):
        """PHASE_EDGE_CHECKS attribution plus the ``kernel_seconds`` counter."""
        start = time.perf_counter()
        with profile.phase(PHASE_EDGE_CHECKS):
            yield
        self.phase_seconds["kernel_seconds"] += time.perf_counter() - start

    # -- pack-cache plumbing -------------------------------------------------

    def _cached_items(self, layer: int, profile: PhaseProfile) -> List[LevelItem]:
        with profile.phase(PHASE_OTHER):
            return self.caches.level_items(self.tree.top, layer)

    def _cached_partition(
        self, key: Any, mbrs: List[Rect], value: int, profile: PhaseProfile
    ) -> Tuple[List[List[int]], Any]:
        """The plan-level shared partition seam (memo + pack store)."""

        @contextlib.contextmanager
        def cold():
            with self._pack_timer(), profile.phase(PHASE_PARTITION):
                yield

        return self.caches.partition_rows(
            key, mbrs, value, use_rows=self.use_rows, cold_timer=cold
        )

    # -- pack-store plumbing (persistent, content-addressed) ------------------

    def _store_key(self, kind: str, layers: Any, value: int) -> str:
        """Content key: geometry digest(s) + partition parameters.

        ``use_rows`` and the margin fully determine the row membership given
        the geometry, so they (not the raw signature) key the fused buffers;
        the brute-force threshold is launch-time lane policy and deliberately
        not part of the key.
        """
        return store_key(
            kind, self.caches.digest_of(layers), self.use_rows, margin_for_rule(value)
        )

    def _store_load(self, kind: str, layers: Any, value: int, decode: Callable) -> Any:
        store = self.caches.store
        if store is None:
            return None
        return store.load(
            self._store_key(kind, layers, value), lambda a, m: decode(a, m)
        )

    def _store_save(self, kind: str, layers: Any, value: int, arrays, meta) -> None:
        store = self.caches.store
        if store is not None:
            store.save(self._store_key(kind, layers, value), arrays, meta)

    def _edge_packer(self, layer: int) -> HierarchicalEdgePacker:
        return self.pack_cache.get(
            "edge-packer", layer, lambda: HierarchicalEdgePacker(self.tree, layer)
        )

    def _rect_packer(self, layer: int) -> HierarchicalRectPacker:
        return self.pack_cache.get(
            "rect-packer", layer, lambda: HierarchicalRectPacker(self.tree, layer)
        )

    def _cached_row_pair(
        self, layer: int, sig: Any, index: int, row_items: List[LevelItem]
    ) -> EdgeBufferPair:
        def build() -> EdgeBufferPair:
            with self._pack_timer():
                return self._row_edge_buffers(row_items, self._edge_packer(layer))

        return self.pack_cache.get("edge-rows", (layer, sig, index), build)

    def _cached_fused_pair(
        self,
        layer: int,
        sig: Any,
        member_rows: List[List[int]],
        items: List[LevelItem],
        value: int,
    ) -> EdgeBufferPair:
        def build() -> EdgeBufferPair:
            loaded = self._store_load("fused-edges", layer, value, edge_pair_from_arrays)
            if loaded is not None:
                return loaded
            with self._pack_timer():
                pair = concat_segmented(
                    [
                        self._cached_row_pair(layer, sig, i, [items[m] for m in row])
                        for i, row in enumerate(member_rows)
                    ]
                )
            arrays, meta = edge_pair_to_arrays(pair)
            self._store_save("fused-edges", layer, value, arrays, meta)
            return pair

        return self.pack_cache.get("fused-edges", (layer, sig), build)

    def _flatten_items(self, items: Sequence[LevelItem], layer: int) -> List[Polygon]:
        """Materialize all polygons of the given level items (top coords)."""
        polygons: List[Polygon] = []
        for item in items:
            if item.polygon is not None:
                polygons.append(item.polygon)
            else:
                assert item.cell_name is not None and item.placement is not None
                polygons.extend(
                    self.subtree.polygons_in_window(
                        item.cell_name, item.placement, layer, item.mbr
                    )
                )
        return polygons

    def _launch_pair_kernels(
        self,
        polygons: Sequence[Polygon],
        threshold: int,
        *,
        want_width: bool,
        stream: StreamExecutor,
        profile: PhaseProfile,
    ) -> List[PairHits]:
        """Pack, copy, and check one task's edges on the device."""
        host_start = time.perf_counter()
        with self._pack_timer():
            buffers = pack_edges(polygons)
        stream.record_host("pack-edges", time.perf_counter() - host_start)

        hits: List[PairHits] = []
        for buf in (buffers["v"], buffers["h"]):
            if len(buf) < 2:
                continue
            with profile.phase(PHASE_OTHER):
                device_buf = EdgeBuffer(
                    buf.vertical,
                    stream.memcpy_h2d(buf.fixed, name="edges.fixed"),
                    stream.memcpy_h2d(buf.lo, name="edges.lo"),
                    stream.memcpy_h2d(buf.hi, name="edges.hi"),
                    stream.memcpy_h2d(buf.interior, name="edges.interior"),
                    stream.memcpy_h2d(buf.poly, name="edges.poly"),
                )
            with self._kernel_phase(profile):
                if len(buf) <= self.brute_force_threshold:
                    self.counters["kernels_bruteforce"] += 1
                    hits.append(
                        stream.launch(
                            "pairs-bruteforce",
                            kernel_pairs_bruteforce,
                            device_buf,
                            threshold,
                            want_width=want_width,
                            items=len(buf),
                        )
                    )
                else:
                    self.counters["kernels_sweepline"] += 1
                    hits.append(
                        stream.launch(
                            "pairs-sweepline",
                            kernel_pairs_sweep,
                            device_buf,
                            threshold,
                            want_width=want_width,
                            items=len(buf),
                        )
                    )
        return hits

    # -- spacing ---------------------------------------------------------------

    def _spacing_rows(self, rule: Rule, profile: PhaseProfile) -> RowWork:
        layer, value = rule.layer, rule.value
        items = self._cached_items(layer, profile)
        member_rows, sig = self._cached_partition(
            layer, [it.mbr for it in items], value, profile
        )
        host_start = time.perf_counter()
        fused = self._cached_fused_pair(layer, sig, member_rows, items, value)
        self.device.record_host("pack-fused", time.perf_counter() - host_start)
        return RowWork(
            fused,
            _row_weights(
                len(member_rows), fused.vertical.segment, fused.horizontal.segment
            ),
        )

    def _row_edge_buffers(
        self, row_items: Sequence[LevelItem], packer: HierarchicalEdgePacker
    ) -> EdgeBufferPair:
        """One row's flat edge buffers, built hierarchically.

        Local polygons of the top cell are packed directly; child instances
        reuse the per-definition buffers via vectorised transforms — host
        preparation scales with definitions, not flat polygon count.
        """
        parts_v = []
        parts_h = []
        local_polys: List[Polygon] = []
        offset = 0
        instances: List[Tuple[str, Transform]] = []
        for item in row_items:
            if item.polygon is not None:
                local_polys.append(item.polygon)
            else:
                assert item.cell_name is not None and item.placement is not None
                instances.append((item.cell_name, item.placement))
        if local_polys:
            packed = pack_edges(local_polys)
            parts_v.append(packed["v"])
            parts_h.append(packed["h"])
            offset = len(local_polys)
        for cell_name, placement in instances:
            pair = packer.instance_buffer(cell_name, placement, offset)
            offset += pair.num_polygons
            if len(pair.vertical):
                parts_v.append(pair.vertical)
            if len(pair.horizontal):
                parts_h.append(pair.horizontal)
        return EdgeBufferPair(
            concat_edge_buffers(parts_v, vertical=True),
            concat_edge_buffers(parts_h, vertical=False),
            offset,
        )

    # -- width -------------------------------------------------------------------

    def _width(self, layer: int, value: int, profile: PhaseProfile) -> List[Violation]:
        definitions, instances = self._definition_instances(layer)
        if not definitions:
            return []
        with profile.phase(PHASE_OTHER):
            polygons: List[Polygon] = []
            owner: List[int] = []  # definition index per polygon
            for def_index, (cell_name, polys) in enumerate(definitions):
                for polygon in polys:
                    polygons.append(polygon)
                    owner.append(def_index)
        stream = self._stream(0)
        # Polygon ids must be unique per polygon so width stays intra-polygon.
        hits = self._launch_pair_kernels(
            polygons, value, want_width=True, stream=stream, profile=profile
        )
        per_def = self._group_hits_by_definition(hits, owner)
        return self._instantiate(per_def, instances, ViolationKind.WIDTH, layer, value)

    # -- area ---------------------------------------------------------------------

    def _area(self, layer: int, value: int, profile: PhaseProfile) -> List[Violation]:
        definitions, instances = self._definition_instances(layer)
        if not definitions:
            return []
        polygons: List[Polygon] = []
        owner: List[int] = []
        for def_index, (cell_name, polys) in enumerate(definitions):
            for polygon in polys:
                polygons.append(polygon)
                owner.append(def_index)
        stream = self._stream(0)
        host_start = time.perf_counter()
        with self._pack_timer():
            buf = pack_vertices(polygons)
        stream.record_host("pack-vertices", time.perf_counter() - host_start)
        with profile.phase(PHASE_OTHER):
            xs = stream.memcpy_h2d(buf.xs, name="verts.x")
            ys = stream.memcpy_h2d(buf.ys, name="verts.y")
            buf.xs, buf.ys = xs, ys
        with self._kernel_phase(profile):
            areas = stream.launch("area", kernel_area, buf, items=len(buf))
        per_def: Dict[int, List[Violation]] = {}
        for poly_index, area in enumerate(areas):
            if int(area) < value:
                polygon = polygons[poly_index]
                per_def.setdefault(owner[poly_index], []).append(
                    Violation(
                        kind=ViolationKind.AREA,
                        layer=layer,
                        region=polygon.mbr,
                        measured=int(area),
                        required=value,
                    )
                )
        return self._instantiate(per_def, instances, ViolationKind.AREA, layer, value)

    # -- corner spacing (roadmap extension) --------------------------------------

    def _cached_fused_corners(
        self,
        layer: int,
        sig: Any,
        member_rows: List[List[int]],
        items: List[LevelItem],
        value: int,
    ) -> CornerBuffer:
        def build() -> CornerBuffer:
            loaded = self._store_load("fused-corners", layer, value, corners_from_arrays)
            if loaded is not None:
                return loaded
            with self._pack_timer():
                parts: List[CornerBuffer] = []
                for index, members in enumerate(member_rows):
                    polygons = self._flatten_items([items[m] for m in members], layer)
                    row_buf = pack_corners(polygons)
                    if len(row_buf):
                        row_buf.segment = np.full(len(row_buf), index, dtype=np.int64)
                        parts.append(row_buf)
                if not parts:
                    buf = pack_corners([])
                else:
                    buf = CornerBuffer(
                        np.concatenate([p.x for p in parts]),
                        np.concatenate([p.y for p in parts]),
                        np.concatenate([p.qx for p in parts]),
                        np.concatenate([p.qy for p in parts]),
                        np.concatenate([p.poly for p in parts]),
                        np.concatenate([p.segment for p in parts]),
                    )
            arrays, meta = corners_to_arrays(buf)
            self._store_save("fused-corners", layer, value, arrays, meta)
            return buf

        return self.pack_cache.get("fused-corners", (layer, sig), build)

    def _corner_rows(self, rule: Rule, profile: PhaseProfile) -> RowWork:
        """Diagonal corner checks: every row's convex corners, fused."""
        layer, value = rule.layer, rule.value
        items = self._cached_items(layer, profile)
        member_rows, sig = self._cached_partition(
            layer, [it.mbr for it in items], value, profile
        )
        host_start = time.perf_counter()
        buf = self._cached_fused_corners(layer, sig, member_rows, items, value)
        self.device.record_host("pack-corners-fused", time.perf_counter() - host_start)
        return RowWork(buf, _row_weights(len(member_rows), buf.segment))

    # -- enclosure -----------------------------------------------------------------

    def _enclosure_rows(self, rule: Rule, profile: PhaseProfile) -> RowWork:
        """All-rectangle rows fuse into one segmented candidate/measure/reduce
        round; rectilinear rows are left for the exact host path."""
        via_layer, metal_layer, value = rule.layer, rule.other_layer, rule.value
        via_items = self._cached_items(via_layer, profile)
        metal_items = self._cached_items(metal_layer, profile)
        if not via_items:
            return RowWork()
        # Partition rows over both populations together: an instance may
        # appear twice (one MBR per layer), but an enclosing metal always
        # overlaps its via, so overlapping items land in the same row.
        combined = via_items + metal_items
        member_rows, sig = self._cached_partition(
            (via_layer, metal_layer), [it.mbr for it in combined], value, profile
        )
        num_vias = len(via_items)
        host_start = time.perf_counter()
        rect_rows = self._cached_rect_rows(
            via_layer, metal_layer, sig, member_rows, combined, num_vias, value
        )
        self.device.record_host("pack-rects-fused", time.perf_counter() - host_start)

        work = RowWork()
        fused: List[int] = []  # ids of the all-rectangle rows
        for index, (via_buf, metal_buf) in enumerate(rect_rows):
            if len(via_buf) == 0:
                continue
            if via_buf.all_rect and metal_buf.all_rect:
                fused.append(index)
            else:
                members = member_rows[index]
                work.host_rows.append(
                    (
                        [combined[m] for m in members if m < num_vias],
                        [combined[m] for m in members if m >= num_vias],
                    )
                )
        if fused:
            row_ids = np.asarray(fused, dtype=_INT)
            via_bufs = [rect_rows[index][0] for index in fused]
            metal_bufs = [rect_rows[index][1] for index in fused]
            work.buffers = EnclosureBuffer(
                np.concatenate([buf.rects for buf in via_bufs], axis=0),
                np.repeat(row_ids, [len(buf) for buf in via_bufs]),
                np.concatenate([buf.rects for buf in metal_bufs], axis=0),
                np.repeat(row_ids, [len(buf) for buf in metal_bufs]),
            )
            work.weights = _row_weights(
                len(member_rows), work.buffers.via_segment, work.buffers.metal_segment
            )
        return work

    def run_host_rows(
        self, rule: Rule, work: RowWork, profile: PhaseProfile
    ) -> List[Violation]:
        """The rows fused launches cannot take: exact edge-based enclosure
        margins for rectilinear shapes, computed on the host."""
        out: List[Violation] = []
        for via_items, metal_items in work.host_rows:
            vias = self._flatten_items(via_items, rule.layer)
            metals = self._flatten_items(metal_items, rule.other_layer)
            with profile.phase(PHASE_SWEEPLINE):
                windows = [v.mbr.inflated(rule.value) for v in vias]
                candidates: List[List[Polygon]] = [[] for _ in vias]
                for i, j in iter_bipartite_overlaps(windows, [m.mbr for m in metals]):
                    candidates[i].append(metals[j])
            with self._kernel_phase(profile):
                for via, cands in zip(vias, candidates):
                    out.extend(
                        enclosure_pair_violations(
                            via, cands, rule.layer, rule.other_layer, rule.value
                        )
                    )
        return out

    def _cached_rect_rows(
        self,
        via_layer: int,
        metal_layer: int,
        sig: Any,
        member_rows: List[List[int]],
        combined: List[LevelItem],
        num_vias: int,
        value: int,
    ) -> List[tuple]:
        """Per-row ``(via RectBuffer, metal RectBuffer)`` pairs, cached.

        Shared by the fused enclosure path and the multiprocess shard
        builder, which cuts these rows across worker processes.
        """

        def build() -> List[tuple]:
            loaded = self._store_load(
                "rect-rows", (via_layer, metal_layer), value, rect_rows_from_arrays
            )
            if loaded is not None:
                return [
                    (loaded[i], loaded[i + 1]) for i in range(0, len(loaded), 2)
                ]
            with self._pack_timer():
                via_packer = self._rect_packer(via_layer)
                metal_packer = self._rect_packer(metal_layer)
                rows = [
                    (
                        self._row_rect_buffer(
                            [combined[m] for m in members if m < num_vias], via_packer
                        ),
                        self._row_rect_buffer(
                            [combined[m] for m in members if m >= num_vias],
                            metal_packer,
                        ),
                    )
                    for members in member_rows
                ]
            arrays, meta = rect_rows_to_arrays([buf for pair in rows for buf in pair])
            self._store_save("rect-rows", (via_layer, metal_layer), value, arrays, meta)
            return rows

        return self.pack_cache.get("rect-rows", (via_layer, metal_layer, sig), build)

    def _row_rect_buffer(
        self, row_items: Sequence[LevelItem], packer: HierarchicalRectPacker
    ) -> RectBuffer:
        parts = []
        all_rect = True
        local: List[Polygon] = []
        for item in row_items:
            if item.polygon is not None:
                local.append(item.polygon)
            else:
                assert item.cell_name is not None and item.placement is not None
                buf = packer.instance_rects(item.cell_name, item.placement)
                all_rect = all_rect and buf.all_rect
                if len(buf):
                    parts.append(buf.rects)
        if local:
            parts.insert(0, np.asarray([tuple(p.mbr) for p in local], dtype=np.int64))
            all_rect = all_rect and all(p.is_rectangle for p in local)
        if parts:
            return RectBuffer(np.concatenate(parts, axis=0), all_rect)
        return RectBuffer.empty()

    # -- definition/instance machinery for intra rules ------------------------------

    def _definition_instances(
        self, layer: int
    ) -> Tuple[List[Tuple[str, List[Polygon]]], Dict[int, List[Transform]]]:
        """Unique checked definitions plus the transforms instantiating each.

        Magnified placements keep neither distances nor areas, so each gets
        a dedicated definition with pre-transformed polygons and an identity
        instance, and the kernels still see every instance exactly once.
        Cached per layer across the deck's rules.
        """
        return self.pack_cache.get(
            "definitions", layer, lambda: self._build_definition_instances(layer)
        )

    def _build_definition_instances(
        self, layer: int
    ) -> Tuple[List[Tuple[str, List[Polygon]]], Dict[int, List[Transform]]]:
        definitions: List[Tuple[str, List[Polygon]]] = []
        def_index_of: Dict[str, int] = {}
        instances: Dict[int, List[Transform]] = {}
        for cell, transform in self.tree.iter_instances(layer=layer):
            polys = cell.polygons(layer)
            if not polys:
                continue
            if transform.magnification == 1:
                index = def_index_of.get(cell.name)
                if index is None:
                    index = len(definitions)
                    def_index_of[cell.name] = index
                    definitions.append((cell.name, polys))
                    instances[index] = []
                instances[index].append(transform)
            else:
                index = len(definitions)
                definitions.append(
                    (f"{cell.name}@{transform}", [p.transformed(transform) for p in polys])
                )
                instances[index] = [IDENTITY]
        return definitions, instances

    def _group_hits_by_definition(
        self, hits: Sequence[PairHits], owner: List[int]
    ) -> Dict[int, List[Tuple[Rect, int]]]:
        # Width hits carry poly ids == global polygon indices; map to owners.
        grouped: Dict[int, List[Tuple[Rect, int]]] = {}
        batch = PairHits.concatenate(list(hits))
        if len(batch) == 0:
            return grouped
        owners = np.asarray(owner, dtype=np.int64)[batch.poly_a]
        regions = np.stack([batch.xlo, batch.ylo, batch.xhi, batch.yhi], axis=1)
        for own, coords, measured in zip(
            owners.tolist(), regions.tolist(), batch.measured.tolist()
        ):
            grouped.setdefault(own, []).append((Rect(*coords), measured))
        return grouped

    def _instantiate(
        self,
        per_def,
        instances: Dict[int, List[Transform]],
        kind: ViolationKind,
        layer: int,
        required: int,
    ) -> List[Violation]:
        out: List[Violation] = []
        for def_index, found in per_def.items():
            for transform in instances.get(def_index, []):
                for item in found:
                    if isinstance(item, Violation):
                        out.append(item.transformed(transform))
                    else:
                        region, measured = item
                        out.append(
                            Violation(
                                kind=kind,
                                layer=layer,
                                region=transform.apply_rect(region),
                                measured=measured,
                                required=required,
                            )
                        )
        return out

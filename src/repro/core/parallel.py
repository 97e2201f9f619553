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
:func:`run_row_task`: a pure function of the segmented buffers.

Device work is issued through :class:`~repro.gpu.executor.StreamExecutor`
policies (Listing 2's stream executor): one executor wraps each stream, and
every copy/launch in this module goes through it, so swapping the executor
swaps where the work lands.

Every device buffer is expanded from the plan's one
:class:`~repro.hierarchy.edgepack.InstanceTable` — a definition's ring
buffers mapped through all of its placements in one array operation, no
``Polygon`` in between. What was built — item MBRs, row partitions, fused
buffers, definition buffers — lives in the plan's
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
from ..geometry import Polygon
from ..hierarchy.edgepack import (
    DefinitionBuffers,
    EdgeBufferPair,
    InstanceTable,
    RectBuffer,
    corners_from_arrays,
    corners_to_arrays,
    edge_pair_from_arrays,
    edge_pair_to_arrays,
    place_rects,
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
    VertexBuffer,
    edges_from_vertices,
    kernel_area,
    kernel_corner_pairs_segmented,
    kernel_enclosure_candidates,
    kernel_enclosure_margins,
    kernel_pairs_bruteforce,
    kernel_pairs_bruteforce_segmented,
    kernel_pairs_sweep,
    kernel_pairs_sweep_segmented,
    reduce_enclosure_best,
)
from ..util.profile import (
    PHASE_EDGE_CHECKS,
    PHASE_OTHER,
    PHASE_PARTITION,
    PHASE_SWEEPLINE,
    PhaseProfile,
)
from ..violation_table import ViolationTable
from .packstore import store_key
from .plan import CheckPlan, PackCache, kind_spec
from .results import Violations
from .rules import Rule, RuleKind

__all__ = [
    "BRUTE_FORCE_THRESHOLD",
    "EnclosureBuffer",
    "PackCache",
    "ParallelBackend",
    "ROW_KINDS",
    "RowWork",
    "corner_hits_to_violations",
    "enclosure_margins_to_violations",
    "pair_hits_to_violations",
    "run_row_task",
]

#: Edge count at or below which a segment rides the brute-force lane (§IV-E).
#: Read when a backend is built.
BRUTE_FORCE_THRESHOLD = 256

#: Simulated CUDA streams the backend issues its copies and launches on
#: (§V-C).
NUM_STREAMS = 2

_INT = np.int64


def _violations(
    kind: ViolationKind,
    layer: int,
    regions: np.ndarray,
    measured: np.ndarray,
    required: int,
    *,
    other_layer: Optional[int] = None,
) -> ViolationTable:
    """The table of an ``(n, 4)`` region array and its measurements: the
    columns go in as they are, no ``Rect`` or ``Violation`` per hit."""
    return ViolationTable.from_columns(
        layer, kind.value, regions[:, 0], regions[:, 1], regions[:, 2], regions[:, 3],
        measured, required, other_layer,
    )


def pair_hits_to_violations(
    hits: Sequence[PairHits],
    kind: ViolationKind,
    layer: int,
    required: int,
    *,
    other_layer: Optional[int] = None,
) -> ViolationTable:
    """Host-side conversion of pair-kernel hits to violation rows."""
    batch = PairHits.concatenate(list(hits))
    return ViolationTable.from_columns(
        layer, kind.value, batch.xlo, batch.ylo, batch.xhi, batch.yhi,
        batch.measured, required, other_layer,
    )


def corner_hits_to_violations(
    hits: CornerHits, layer: int, value: int
) -> ViolationTable:
    """Corner-kernel hits to violation rows."""
    return ViolationTable.from_columns(
        layer, ViolationKind.CORNER.value,
        np.minimum(hits.ax, hits.bx), np.minimum(hits.ay, hits.by),
        np.maximum(hits.ax, hits.bx), np.maximum(hits.ay, hits.by),
        hits.measured, value,
    )


def enclosure_margins_to_violations(
    via_rects: np.ndarray,
    best: np.ndarray,
    via_layer: int,
    metal_layer: int,
    value: int,
) -> ViolationTable:
    """Reduced per-via enclosure margins to violation rows: the failing
    vias' MBRs inflated by the rule value, the margin clamped at zero."""
    failing = np.flatnonzero(best < value)
    rects = via_rects[failing]
    return ViolationTable.from_columns(
        via_layer, ViolationKind.ENCLOSURE.value,
        rects[:, 0] - value, rects[:, 1] - value, rects[:, 2] + value, rects[:, 3] + value,
        np.maximum(best[failing], 0), value, metal_layer,
    )


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
    work (``None`` when there is none). ``host_rows`` are the leftovers:
    ``(via items, metal items)`` of each enclosure row with rectilinear
    (non-rectangle) geometry, which keeps the exact host fallback.
    """

    buffers: Any = None
    host_rows: List[Tuple[List[LevelItem], List[LevelItem]]] = dataclasses.field(
        default_factory=list
    )


def _item_rows(member_rows: Sequence[Sequence[int]], num_items: int) -> np.ndarray:
    """Row id per item, from the partition's member lists."""
    rows = np.zeros(num_items, dtype=_INT)
    for index, members in enumerate(member_rows):
        rows[members] = index
    return rows


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
            # A lane holding every edge runs on the device buffer itself: a
            # gather would only copy all six columns in the same order.
            lane_buf = (
                device_buf if count == len(buf) else device_buf.take(np.flatnonzero(mask))
            )
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
#: backend state.
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

#: Rule kinds executed as row tasks.
ROW_KINDS = tuple(_ROW_LAUNCHES)


def run_row_task(
    rule: Rule,
    buffers: Any,
    threshold: int,
    executors: Sequence[StreamExecutor],
    profile: PhaseProfile,
) -> Tuple[ViolationTable, Dict[str, int]]:
    """Check the rows held by ``buffers`` against one rule.

    The whole definition of a row task: :class:`ParallelBackend` calls it
    with every row of the rule. Returns the violation table plus the
    :data:`ROW_COUNTERS` deltas.
    """
    launch, to_violations = _ROW_LAUNCHES[rule.kind]
    hits, counters = launch(buffers, rule.value, threshold, executors, profile)
    return to_violations(hits, buffers, rule), counters


class ParallelBackend:
    """Executes a plan's rules with the row-based GPU algorithms."""

    #: The adaptive row partition (§IV-B) is always on; the partition
    #: ablation bench turns it off.
    use_rows = True

    def __init__(self, plan: CheckPlan, *, device: Optional[Device] = None) -> None:
        self.plan = plan
        self.layout = plan.layout
        self.tree = plan.tree
        self.caches = plan.caches
        self.subtree = self.caches.subtree
        self.device = device if device is not None else Device()
        self.executors = [
            StreamExecutor(self.device.create_stream()) for _ in range(NUM_STREAMS)
        ]
        self.brute_force_threshold = BRUTE_FORCE_THRESHOLD
        self.pack_cache = self.caches.pack
        self.table: InstanceTable = self.caches.instance_table()
        self.counters = dict.fromkeys(ROW_COUNTERS, 0)
        self.phase_seconds = {"pack_seconds": 0.0, "kernel_seconds": 0.0}
        self._pack_depth = 0
        self._sequential = None

    # -- rule dispatch ------------------------------------------------------

    def run(self, rule: Rule, profile: Optional[PhaseProfile] = None) -> Violations:
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
    ) -> Violations:
        """Execute prepared row work in this process: host rows, then the launch."""
        violations = self.run_host_rows(rule, work, profile)
        if work.buffers is None:
            return violations
        before = profile.seconds(PHASE_EDGE_CHECKS)
        found, counters = run_row_task(
            rule, work.buffers, self.brute_force_threshold, self.executors, profile
        )
        self.phase_seconds["kernel_seconds"] += (
            profile.seconds(PHASE_EDGE_CHECKS) - before
        )
        for key, value in counters.items():
            self.counters[key] += value
        return ViolationTable.concat([violations, found]) if violations else found

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
        guard keeps nested builds from double counting.
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

    def _item_rects(self, layer: int, profile: PhaseProfile) -> List[List[int]]:
        """MBRs of the top level's items on ``layer`` as ``[xlo, ylo, xhi,
        yhi]`` rows of the MBR table, numbered as :meth:`_cached_items` lists
        them: what the row partition is over."""
        with profile.phase(PHASE_OTHER):
            return self.pack_cache.get(
                "item-mbrs", layer, lambda: self.table.item_mbrs(layer).tolist()
            )

    def _cached_partition(
        self, key: Any, mbrs: List[List[int]], value: int, profile: PhaseProfile
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

    def _cached_buffers(
        self, kind: str, layers: Any, sig: Any, value: int, codec: Tuple, build: Callable
    ) -> Any:
        """One rule's row buffers: the plan memo, then the pack store, then
        ``build()`` under the pack timer (and saved). ``codec`` is the
        buffer type's ``(to_arrays, from_arrays)`` pair."""
        to_arrays, from_arrays = codec
        store = self.caches.store

        def cold() -> Any:
            skey = None
            if store is not None:
                skey = self._store_key(kind, layers, value)
                loaded = store.load(skey, from_arrays)
                if loaded is not None:
                    return loaded
            with self._pack_timer():
                buffers = build()
            if skey is not None:
                store.save(skey, *to_arrays(buffers))
            return buffers

        return self.pack_cache.get(kind, (layers, sig), cold)

    def _flatten_items(self, items: Sequence[LevelItem], layer: int) -> List[Polygon]:
        """Materialize all polygons of the given level items (top coords)."""
        polygons: List[Polygon] = []
        rings = self.tree.top.rings(layer)
        for item in items:
            if item.index is not None:
                polygons.append(rings.polygon(item.index))
            else:
                assert item.cell_name is not None and item.placement is not None
                polygons.extend(
                    self.subtree.polygons_in_window(
                        item.cell_name, item.placement, layer, item.mbr
                    )
                )
        return polygons

    # -- spacing and corner spacing: one layer's rows, fused ------------------------

    def _fused_layer(
        self, kind: str, rule: Rule, codec: Tuple, expand: Callable, profile: PhaseProfile
    ) -> Any:
        """``expand(layer, row id per item)`` of the rule's layer through the
        caches."""
        layer, value = rule.layer, rule.value
        mbrs = self._item_rects(layer, profile)
        member_rows, sig = self._cached_partition(layer, mbrs, value, profile)
        host_start = time.perf_counter()
        buffers = self._cached_buffers(
            kind, layer, sig, value, codec,
            lambda: expand(layer, _item_rows(member_rows, len(mbrs))),
        )
        self.device.record_host(f"pack-{kind}", time.perf_counter() - host_start)
        return buffers

    def _spacing_rows(self, rule: Rule, profile: PhaseProfile) -> RowWork:
        return RowWork(self._fused_layer(
            "fused-edges", rule, (edge_pair_to_arrays, edge_pair_from_arrays),
            self.table.edges, profile,
        ))

    def _corner_rows(self, rule: Rule, profile: PhaseProfile) -> RowWork:
        """Diagonal corner checks (roadmap extension): every row's convex corners."""
        return RowWork(self._fused_layer(
            "fused-corners", rule, (corners_to_arrays, corners_from_arrays),
            self.table.corners, profile,
        ))

    # -- enclosure -----------------------------------------------------------------

    def _enclosure_rows(self, rule: Rule, profile: PhaseProfile) -> RowWork:
        """All-rectangle rows fuse into one segmented candidate/measure/reduce
        round; rectilinear rows are left for the exact host path."""
        via_layer, metal_layer, value = rule.layer, rule.other_layer, rule.value
        via_mbrs = self._item_rects(via_layer, profile)
        if not via_mbrs:
            return RowWork()
        # Partition rows over both populations together: an instance may
        # appear twice (one MBR per layer), but an enclosing metal always
        # overlaps its via, so overlapping items land in the same row.
        combined = via_mbrs + self._item_rects(metal_layer, profile)
        num_vias = len(via_mbrs)
        member_rows, sig = self._cached_partition(
            (via_layer, metal_layer), combined, value, profile
        )

        def build() -> List[RectBuffer]:
            rows = _item_rows(member_rows, len(combined))
            via = self.table.rect_rows(via_layer, rows[:num_vias], len(member_rows))
            metal = self.table.rect_rows(metal_layer, rows[num_vias:], len(member_rows))
            return [buf for pair in zip(via, metal) for buf in pair]

        host_start = time.perf_counter()
        # Per row: the via RectBuffer, then the metal one.
        rect_rows = self._cached_buffers(
            "rect-rows", (via_layer, metal_layer), sig, value,
            (rect_rows_to_arrays, rect_rows_from_arrays), build,
        )
        self.device.record_host("pack-rect-rows", time.perf_counter() - host_start)

        work = RowWork()
        fused: List[int] = []  # ids of the all-rectangle rows
        host: List[int] = []  # ids of the rows with rectilinear geometry
        for index in range(len(member_rows)):
            via_buf, metal_buf = rect_rows[2 * index], rect_rows[2 * index + 1]
            if len(via_buf):
                (fused if via_buf.all_rect and metal_buf.all_rect else host).append(index)
        if host:
            items = self._cached_items(via_layer, profile) + self._cached_items(
                metal_layer, profile
            )
            work.host_rows = [
                (
                    [items[m] for m in member_rows[index] if m < num_vias],
                    [items[m] for m in member_rows[index] if m >= num_vias],
                )
                for index in host
            ]
        if fused:
            row_ids = np.asarray(fused, dtype=_INT)
            via_bufs = [rect_rows[2 * index] for index in fused]
            metal_bufs = [rect_rows[2 * index + 1] for index in fused]
            work.buffers = EnclosureBuffer(
                np.concatenate([buf.rects for buf in via_bufs], axis=0),
                np.repeat(row_ids, [len(buf) for buf in via_bufs]),
                np.concatenate([buf.rects for buf in metal_bufs], axis=0),
                np.repeat(row_ids, [len(buf) for buf in metal_bufs]),
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

    # -- width and area: once per definition, instantiated per placement -----------

    def _definitions(self, layer: int) -> DefinitionBuffers:
        """The layer's checked definitions, shared by its width and area rules."""

        def build() -> DefinitionBuffers:
            with self._pack_timer():
                return self.table.definitions(layer)

        return self.pack_cache.get("definitions", layer, build)

    def _run_width(self, rule: Rule, profile: PhaseProfile) -> ViolationTable:
        layer, value = rule.layer, rule.value
        stream = self._stream(0)
        host_start = time.perf_counter()
        defs = self._definitions(layer)
        with self._pack_timer():
            # Ring ids are unique per ring, so width stays intra-polygon.
            buffers = edges_from_vertices(defs.xs, defs.ys, defs.counts)
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
            if len(buf) <= self.brute_force_threshold:
                name, kernel, counter = (
                    "pairs-bruteforce", kernel_pairs_bruteforce, "kernels_bruteforce"
                )
            else:
                name, kernel, counter = (
                    "pairs-sweepline", kernel_pairs_sweep, "kernels_sweepline"
                )
            with self._kernel_phase(profile):
                self.counters[counter] += 1
                hits.append(
                    stream.launch(
                        name, kernel, device_buf, value, want_width=True, items=len(buf)
                    )
                )
        batch = PairHits.concatenate(hits)
        regions = np.stack([batch.xlo, batch.ylo, batch.xhi, batch.yhi], axis=1)
        return self._instantiate(
            defs, batch.poly_a, regions, batch.measured, ViolationKind.WIDTH, layer, value
        )

    def _run_area(self, rule: Rule, profile: PhaseProfile) -> Violations:
        layer, value = rule.layer, rule.value
        stream = self._stream(0)
        host_start = time.perf_counter()
        defs = self._definitions(layer)
        stream.record_host("pack-vertices", time.perf_counter() - host_start)
        if not len(defs.counts):
            return []
        with profile.phase(PHASE_OTHER):
            buf = VertexBuffer(
                stream.memcpy_h2d(defs.xs, name="verts.x"),
                stream.memcpy_h2d(defs.ys, name="verts.y"),
                np.cumsum(defs.counts) - defs.counts,
                defs.counts,
                np.arange(len(defs.counts), dtype=_INT),
            )
        with self._kernel_phase(profile):
            areas = stream.launch("area", kernel_area, buf, items=len(buf))
        failing = np.flatnonzero(areas < value)
        return self._instantiate(
            defs, failing, defs.mbrs[failing], areas[failing],
            ViolationKind.AREA, layer, value,
        )

    def _instantiate(
        self,
        defs: DefinitionBuffers,
        rings: np.ndarray,
        regions: np.ndarray,
        measured: np.ndarray,
        kind: ViolationKind,
        layer: int,
        required: int,
    ) -> ViolationTable:
        """Hits found on definition rings (``regions[i]``/``measured[i]`` on
        ring ``rings[i]``) as rows under every placement of their
        definition: all of a definition's hits through all of its
        placements in one array operation, then one table."""
        placed = [np.zeros((0, 4), dtype=_INT)]
        values = [np.zeros(0, dtype=_INT)]
        owner = defs.owner[rings]
        for unit in np.flatnonzero(np.bincount(owner)).tolist():
            mine = owner == unit
            placements = defs.placements[unit]
            placed.append(place_rects(regions[mine], placements))
            values.append(np.tile(measured[mine], len(placements)))
        return _violations(
            kind, layer, np.concatenate(placed), np.concatenate(values), required
        )

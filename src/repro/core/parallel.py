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
:func:`launch_corner_rows`, :func:`launch_enclosure_rows`), each a pure
function of the segmented buffers and the streams it issues on. The
backend holds ``NUM_STREAMS`` streams (:class:`~repro.gpu.device.Stream`)
of its device and issues every copy and launch on them; host packing is
recorded on the device's timeline.

Every device buffer is expanded from the plan's one
:class:`~repro.hierarchy.edgepack.InstanceTable` — a definition's ring
buffers mapped through all of its placements in one array operation, no
``Polygon`` in between. What was built — item MBRs, row partitions, fused
buffers, definition buffers — lives in the plan's
:class:`~repro.core.plan.PackCache`, keyed by layer and the stable partition
signature, so the second rule touching a layer pays zero host packing. The
backend announces every rule's reads (:func:`pack_reads`) before the first
runs, so each entry leaves the cache with its last reader, and that reader
drops the host columns of a row buffer as soon as their device copies
exist. Coordinates are stored as ``int32`` offsets wherever the pack's
:class:`~repro.gpu.kernels.Frame` proves they fit.

Intra-polygon rules do not need rows: they run one batched kernel over the
*unique cell definitions* (the hierarchy memoisation of §IV-C) and
instantiate the per-definition hits through every placement.

Per-rule-kind dispatch resolves through :func:`~repro.core.plan.kind_spec`:
a kind's ``spec.parallel`` names the ``_run_<name>`` method that packs,
launches and tabulates it, and kinds with no data-parallel strategy
(``spec.parallel is None``) delegate to a sequential backend sharing this
plan's caches.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..checks.base import Violation, ViolationKind
from ..checks.enclosure import check_enclosure
from ..geometry import EMPTY_RECT
from ..hierarchy.edgepack import (
    DefinitionBuffers,
    EdgeBufferPair,
    InstanceTable,
    RectBuffer,
    place_rects,
)
from ..hierarchy.pruning import LevelItem, PlacedRing
from ..gpu.device import Device, Stream
from ..gpu.kernels import (
    CornerBuffer,
    CornerHits,
    EdgeBuffer,
    Frame,
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
    narrow_ids,
    reduce_enclosure_best,
)
from ..partition.rows import RowPartition
from ..util.profile import (
    PHASE_EDGE_CHECKS,
    PHASE_OTHER,
    PHASE_SWEEPLINE,
    PhaseProfile,
)
from ..violation_table import ViolationTable
from .plan import CheckPlan, PackCache, kind_spec
from .results import Violations
from .rules import Rule

__all__ = [
    "BRUTE_FORCE_THRESHOLD",
    "EnclosureBuffer",
    "PackCache",
    "ParallelBackend",
    "corner_hits_to_violations",
    "enclosure_margins_to_violations",
    "launch_corner_rows",
    "launch_enclosure_rows",
    "launch_pair_rows",
    "pack_reads",
    "pair_hits_to_violations",
]

#: Edge count at or below which a segment rides the brute-force lane (§IV-E).
#: Read when a backend is built.
BRUTE_FORCE_THRESHOLD = 256

#: Simulated CUDA streams the backend issues its copies and launches on
#: (§V-C).
NUM_STREAMS = 2

_INT = np.int64

#: An enclosure row left for the host: its via items and its metal items.
HostRow = Tuple[List[LevelItem], List[LevelItem]]


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
    frame: Frame,
    *,
    other_layer: Optional[int] = None,
) -> ViolationTable:
    """Host-side conversion of pair-kernel hits, found in ``frame``, to
    violation rows."""
    batch = PairHits.concatenate(list(hits))
    return _violations(
        kind, layer, frame.restore(batch.xlo, batch.ylo, batch.xhi, batch.yhi),
        batch.measured, required, other_layer=other_layer,
    )


def corner_hits_to_violations(
    hits: CornerHits, layer: int, value: int, frame: Frame
) -> ViolationTable:
    """Corner-kernel hits, found in ``frame``, to violation rows."""
    return _violations(
        ViolationKind.CORNER, layer,
        frame.restore(
            np.minimum(hits.ax, hits.bx), np.minimum(hits.ay, hits.by),
            np.maximum(hits.ax, hits.bx), np.maximum(hits.ay, hits.by),
        ),
        hits.measured, value,
    )


def enclosure_margins_to_violations(
    via_rects: np.ndarray,
    best: np.ndarray,
    via_layer: int,
    metal_layer: int,
    value: int,
    frame: Frame,
) -> ViolationTable:
    """Reduced per-via enclosure margins to violation rows: the failing
    vias' MBRs (in ``frame``) inflated by the rule value, the margin clamped
    at zero."""
    failing = np.flatnonzero(best < value)
    rects = frame.restore(*via_rects[failing].T)
    return _violations(
        ViolationKind.ENCLOSURE, via_layer,
        rects + np.asarray([-value, -value, value, value], dtype=_INT),
        np.maximum(best[failing], 0), value, other_layer=metal_layer,
    )


# ---------------------------------------------------------------------------
# The fused row launch: one definition per rule kind
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EnclosureBuffer:
    """The all-rectangle rows of an enclosure rule, fused.

    Via and metal MBRs as ``(n, 4)`` arrays in ``frame``, each with the row
    id of every rect (the same role ``segment`` plays on edge and corner
    buffers).
    """

    via_rects: np.ndarray
    via_segment: np.ndarray
    metal_rects: np.ndarray
    metal_segment: np.ndarray
    frame: Frame


def _item_rows(partition: RowPartition, num_items: int) -> np.ndarray:
    """Row id per item (0 for an item in no row), off the partition's flat
    tables."""
    rows = np.zeros(num_items, dtype=_INT)
    ends = np.frombuffer(partition.ends, dtype=_INT)
    rows[np.frombuffer(partition.order, dtype=_INT)] = np.repeat(
        np.arange(len(ends)), np.diff(ends, prepend=0)
    )
    return narrow_ids(rows, len(ends))


def _to_device(
    stream: Stream, host: Any, columns: Sequence[str], prefix: str, release: bool
) -> Dict[str, np.ndarray]:
    """``host``'s ``columns`` copied to ``stream``'s device, by column name.

    With ``release`` the caller holds ``host`` alone (it has left the pack
    cache with its last reader): each host column is set to ``None`` as soon
    as its copy exists, so no column is held twice and ``host`` is spent.
    """
    copies = {}
    for column in columns:
        copies[column] = stream.memcpy_h2d(getattr(host, column), name=f"{prefix}.{column}")
        if release:
            setattr(host, column, None)
    return copies


#: The columns of a row-fused edge buffer, in :class:`EdgeBuffer` order.
_EDGE_COLUMNS = ("fixed", "lo", "hi", "interior", "poly", "segment")


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
    streams: Sequence[Stream],
    profile: PhaseProfile,
    *,
    release: bool = False,
) -> Tuple[List[PairHits], Dict[str, int]]:
    """One segmented launch per orientation per lane over fused edge rows.

    Vertical edges ride stream 0 and horizontal edges stream 1, keeping
    both streams busy within the single fused round. The §IV-E executor
    choice is a per-segment policy: segments at or below the brute-force
    threshold take the batched brute-force lane, larger ones the segmented
    sweepline lane. ``release`` hands ``pair`` over (see
    :func:`_to_device`); each orientation's device copy lives only through
    its own launches.
    """
    counters = dict.fromkeys(ROW_COUNTERS, 0)
    hits: List[PairHits] = []
    for buf, stream in (
        (pair.vertical, streams[0]),
        (pair.horizontal, streams[1 % len(streams)]),
    ):
        if len(buf) >= 2:
            hits.extend(
                _launch_edge_lanes(buf, value, threshold, stream, profile, counters, release)
            )
    return hits, counters


def _launch_edge_lanes(
    buf: EdgeBuffer,
    value: int,
    threshold: int,
    stream: Stream,
    profile: PhaseProfile,
    counters: Dict[str, int],
    release: bool,
) -> List[PairHits]:
    """One orientation of :func:`launch_pair_rows`: copy, then one launch
    per lane. The device copy is a local, gone when this returns."""
    with profile.phase(PHASE_OTHER):
        device_buf = EdgeBuffer(
            buf.vertical, **_to_device(stream, buf, _EDGE_COLUMNS, "edges", release)
        )
    seg = device_buf.segment
    small = np.bincount(seg)[seg] <= threshold
    lanes = (
        ("pairs-bruteforce-fused", kernel_pairs_bruteforce_segmented,
         "kernels_bruteforce", small),
        ("pairs-sweepline-fused", kernel_pairs_sweep_segmented,
         "kernels_sweepline", ~small),
    )
    hits: List[PairHits] = []
    for name, kernel, counter, mask in lanes:
        count = int(mask.sum())
        if count < 2:
            continue
        # A lane holding every edge runs on the device buffer itself: a
        # gather would only copy all six columns in the same order.
        lane_buf = (
            device_buf if count == len(device_buf) else device_buf.take(np.flatnonzero(mask))
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
    return hits


def launch_corner_rows(
    buf: CornerBuffer,
    value: int,
    streams: Sequence[Stream],
    profile: PhaseProfile,
    *,
    release: bool = False,
) -> Tuple[CornerHits, Dict[str, int]]:
    """One segmented corner-pair launch over fused corner rows (one
    range-scan lane). ``release`` hands ``buf`` over (see
    :func:`_to_device`)."""
    counters = dict.fromkeys(ROW_COUNTERS, 0)
    if len(buf) < 2:
        return CornerHits.empty(), counters
    stream = streams[0]
    with profile.phase(PHASE_OTHER):
        copies = _to_device(stream, buf, ("x", "y", "segment"), "corners", release)
        device_buf = CornerBuffer(
            copies["x"], copies["y"], buf.qx, buf.qy, buf.poly, copies["segment"]
        )
    with profile.phase(PHASE_EDGE_CHECKS):
        counters["fused_launches"] += 1
        counters["fused_segments"] += _distinct_segments(device_buf.segment)
        hits = stream.launch(
            "corner-pairs-fused",
            kernel_corner_pairs_segmented,
            device_buf,
            value,
            items=len(device_buf),
        )
    return hits, counters


def launch_enclosure_rows(
    buf: EnclosureBuffer,
    value: int,
    streams: Sequence[Stream],
    profile: PhaseProfile,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """All-rectangle enclosure rows on the device: pair, measure, reduce.

    Returns the best (largest) enclosure margin found for each via. One
    banded-scan lane.
    """
    counters = dict.fromkeys(ROW_COUNTERS, 0)
    stream = streams[0]
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


#: The pack store each row-fused strategy keeps its device buffers in.
_FUSED_STORES = {"spacing": "fused-edges", "corner": "fused-corners"}


def pack_reads(rule: Rule) -> List[Tuple[str, Any]]:
    """Every ``(store, layers)`` read of the plan's
    :class:`~repro.core.plan.PackCache` a parallel run of ``rule`` makes."""
    strategy = kind_spec(rule.kind).parallel
    if strategy in _FUSED_STORES:
        layer = rule.layer
        return [("item-mbrs", layer), ("partition", layer), (_FUSED_STORES[strategy], layer)]
    if strategy == "enclosure":
        pair = (rule.layer, rule.other_layer)
        return [
            ("item-mbrs", rule.layer),
            ("item-mbrs", rule.other_layer),
            ("partition", pair),
            ("rect-rows", pair),
        ]
    if strategy in ("width", "area"):
        return [("definitions", rule.layer)]
    return []


#: The stores whose packs hold placed coordinates a kernel adds the rule
#: value to: what :meth:`ParallelBackend._frame` must reach.
_PLACED_STORES = (*_FUSED_STORES.values(), "rect-rows")


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
        self.streams = [self.device.create_stream() for _ in range(NUM_STREAMS)]
        self.brute_force_threshold = BRUTE_FORCE_THRESHOLD
        self.pack_cache = self.caches.pack
        self.table: InstanceTable = self.caches.instance_table()
        self.counters = dict.fromkeys(ROW_COUNTERS, 0)
        self.phase_seconds = {"pack_seconds": 0.0, "kernel_seconds": 0.0}
        self._pack_depth = 0
        self._sequential = None
        #: Layers (one layer, or a via-metal pair) -> the largest rule value
        #: a kernel over their placed packs adds to a coordinate.
        self._reach: Dict[Any, int] = {}
        for compiled in plan.run_order:
            for store, layers in pack_reads(compiled.rule):
                self.pack_cache.expect(store, layers)
                if store in _PLACED_STORES:
                    reach = max(self._reach.get(layers, 0), compiled.rule.value)
                    self._reach[layers] = reach

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
        return getattr(self, f"_run_{spec.parallel}")(rule, profile)

    def stats(self) -> Dict[str, float]:
        """Executor-choice, device-traffic, fusion, and memo counters."""
        counters = self.device.counters()
        return dict(
            self.counters,
            kernel_launches=counters["kernel_launches"],
            h2d_copies=counters["h2d_copies"],
            h2d_bytes=counters["h2d_bytes"],
            d2h_copies=counters["d2h_copies"],
            pack_cache_hits=self.pack_cache.hits,
            pack_cache_misses=self.pack_cache.misses,
            pack_seconds=self.phase_seconds["pack_seconds"],
            kernel_seconds=self.phase_seconds["kernel_seconds"],
        )

    # -- helpers --------------------------------------------------------------

    def _fallback(self):
        if self._sequential is None:
            from .sequential import SequentialBackend

            self._sequential = SequentialBackend(
                self.layout, tree=self.tree, caches=self.caches
            )
        return self._sequential

    # -- phase timing --------------------------------------------------------

    @contextlib.contextmanager
    def _pack_timer(self):
        """Attribute elapsed time to ``pack_seconds`` (outermost scope only).

        Entered strictly inside *cold* build bodies — never around cache
        lookups — so a rule whose artifacts all come from the memo reports
        exactly zero pack seconds. The depth guard keeps nested builds from
        double counting.
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

    def _launch_rows(
        self, launch: Callable, *args: Any, profile: PhaseProfile, **options: Any
    ) -> Any:
        """``launch(*args, streams, profile, **options)``, one of the row
        launches: its hits, with its :data:`ROW_COUNTERS` deltas added to
        this backend's and its ``PHASE_EDGE_CHECKS`` time to
        ``kernel_seconds``."""
        before = profile.seconds(PHASE_EDGE_CHECKS)
        hits, counters = launch(*args, self.streams, profile, **options)
        self.phase_seconds["kernel_seconds"] += profile.seconds(PHASE_EDGE_CHECKS) - before
        for key, value in counters.items():
            self.counters[key] += value
        return hits

    # -- pack-cache plumbing -------------------------------------------------

    def _cached_items(self, layer: int, profile: PhaseProfile) -> List[LevelItem]:
        with profile.phase(PHASE_OTHER):
            return self.caches.level_items(self.tree.top, layer)

    def _item_rects(self, layer: int, profile: PhaseProfile) -> array:
        """The flat MBR table (:func:`~repro.partition.rows.mbr_table`) of the
        top level's items on ``layer``, numbered as :meth:`_cached_items`
        lists them: what the row partition is over."""

        def build() -> array:
            table = np.ascontiguousarray(self.table.item_mbrs(layer), dtype=_INT)
            return array("q", table.tobytes())

        with profile.phase(PHASE_OTHER):
            return self.pack_cache.get("item-mbrs", layer, None, build)

    def _frame(self, layers: Any, value: int) -> Frame:
        """Where the packs over ``layers`` (one layer or a via-metal pair)
        store their coordinates: around the layers' top-frame extent,
        reaching the largest value of any rule that reads them."""
        box = EMPTY_RECT
        for layer in layers if isinstance(layers, tuple) else (layers,):
            box = box.union(self.tree.top_mbr(layer))
        reach = max(self._reach.get(layers, 0), value)
        return Frame.around(box.xlo, box.ylo, box.xhi, box.yhi, reach)

    def _cached_buffers(
        self, store: str, layers: Any, key: Any, build: Callable
    ) -> Tuple[Any, bool]:
        """One rule's row buffers: the plan memo, else ``build()`` under the
        pack timer; and whether this rule is their last reader."""

        def cold() -> Any:
            with self._pack_timer():
                return build()

        return self.pack_cache.read(store, layers, key, cold)

    def _flatten_items(self, items: Sequence[LevelItem], layer: int) -> List[PlacedRing]:
        """Every ring of the given level items, placed in top coordinates."""
        rings = self.tree.top.rings(layer)
        placed: List[PlacedRing] = []
        for item in items:
            if item.index is not None:
                placed.append((rings.points(item.index), item.mbr))
            else:
                placed.extend(
                    self.subtree.rings_in_window(item.cell_name, item.placement, layer, item.mbr)
                )
        return placed

    # -- spacing and corner spacing: one layer's rows, fused ------------------------

    def _fused_layer(
        self, rule: Rule, expand: Callable, profile: PhaseProfile
    ) -> Tuple[Any, bool, Frame]:
        """``expand(layer, row id per item, frame)`` of the rule's layer
        through the caches; whether this rule is its last reader; the frame."""
        layer, value = rule.layer, rule.value
        store = _FUSED_STORES[kind_spec(rule.kind).parallel]
        mbrs = self._item_rects(layer, profile)
        partition, sig = self.caches.partition_rows(
            layer, len(mbrs) // 4, lambda: mbrs, value, use_rows=self.use_rows, profile=profile
        )
        frame = self._frame(layer, value)
        host_start = time.perf_counter()
        buffers, last = self._cached_buffers(
            store, layer, (sig, frame),
            lambda: expand(layer, _item_rows(partition, len(mbrs) // 4), frame),
        )
        self.device.record_host(f"pack-{store}", time.perf_counter() - host_start)
        return buffers, last, frame

    def _run_spacing(self, rule: Rule, profile: PhaseProfile) -> ViolationTable:
        pair, last, frame = self._fused_layer(rule, self.table.edges, profile)
        hits = self._launch_rows(
            launch_pair_rows, pair, rule.value, self.brute_force_threshold,
            profile=profile, release=last,
        )
        return pair_hits_to_violations(
            hits, ViolationKind.SPACING, rule.layer, rule.value, frame
        )

    def _run_corner(self, rule: Rule, profile: PhaseProfile) -> ViolationTable:
        """Diagonal corner checks (roadmap extension): every row's convex corners."""
        buf, last, frame = self._fused_layer(rule, self.table.corners, profile)
        hits = self._launch_rows(
            launch_corner_rows, buf, rule.value, profile=profile, release=last
        )
        return corner_hits_to_violations(hits, rule.layer, rule.value, frame)

    # -- enclosure -----------------------------------------------------------------

    def _run_enclosure(self, rule: Rule, profile: PhaseProfile) -> ViolationTable:
        fused, host_rows = self._pack_enclosure(rule, profile)
        violations = self._host_enclosure(rule, host_rows, profile)
        if fused is None:
            return ViolationTable.of(violations)
        best = self._launch_rows(launch_enclosure_rows, fused, rule.value, profile=profile)
        found = enclosure_margins_to_violations(
            fused.via_rects, best, rule.layer, rule.other_layer, rule.value, fused.frame
        )
        return ViolationTable.concat([violations, found]) if violations else found

    def _pack_enclosure(
        self, rule: Rule, profile: PhaseProfile
    ) -> Tuple[Optional[EnclosureBuffer], List[HostRow]]:
        """The rule's all-rectangle rows fused into one buffer (``None`` when
        there are none), and each row with rectilinear geometry, left for the
        exact host path."""
        via_layer, metal_layer, value = rule.layer, rule.other_layer, rule.value
        layers = (via_layer, metal_layer)
        via_mbrs = self._item_rects(via_layer, profile)
        # Read before the early return, so that no announced read of the
        # metal table goes unspent and keeps it alive.
        metal_mbrs = self._item_rects(metal_layer, profile)
        if not via_mbrs:
            return None, []
        # Partition rows over both populations together: an instance may
        # appear twice (one MBR per layer), but an enclosing metal always
        # overlaps its via, so overlapping items land in the same row.
        combined = via_mbrs + metal_mbrs
        num_vias = len(via_mbrs) // 4
        partition, sig = self.caches.partition_rows(
            layers, len(combined) // 4, lambda: combined, value,
            use_rows=self.use_rows, profile=profile,
        )
        num_rows = partition.num_rows
        frame = self._frame(layers, value)

        def build() -> List[RectBuffer]:
            rows = _item_rows(partition, len(combined) // 4)
            via = self.table.rect_rows(via_layer, rows[:num_vias], num_rows, frame)
            metal = self.table.rect_rows(metal_layer, rows[num_vias:], num_rows, frame)
            return [buf for pair in zip(via, metal) for buf in pair]

        host_start = time.perf_counter()
        # Per row: the via RectBuffer, then the metal one.
        rect_rows, _ = self._cached_buffers("rect-rows", layers, (sig, frame), build)
        self.device.record_host("pack-rect-rows", time.perf_counter() - host_start)

        fused: List[int] = []  # ids of the all-rectangle rows
        host: List[int] = []  # ids of the rows with rectilinear geometry
        for index in range(num_rows):
            via_buf, metal_buf = rect_rows[2 * index], rect_rows[2 * index + 1]
            if len(via_buf):
                (fused if via_buf.all_rect and metal_buf.all_rect else host).append(index)
        host_rows: List[HostRow] = []
        if host:
            items = self._cached_items(via_layer, profile) + self._cached_items(
                metal_layer, profile
            )
            member_rows = partition.members
            host_rows = [
                (
                    [items[m] for m in member_rows[index] if m < num_vias],
                    [items[m] for m in member_rows[index] if m >= num_vias],
                )
                for index in host
            ]
        if not fused:
            return None, host_rows
        row_ids = narrow_ids(np.asarray(fused, dtype=_INT), num_rows)
        via_bufs = [rect_rows[2 * index] for index in fused]
        metal_bufs = [rect_rows[2 * index + 1] for index in fused]
        return EnclosureBuffer(
            np.concatenate([buf.rects for buf in via_bufs], axis=0),
            np.repeat(row_ids, [len(buf) for buf in via_bufs]),
            np.concatenate([buf.rects for buf in metal_bufs], axis=0),
            np.repeat(row_ids, [len(buf) for buf in metal_bufs]),
            frame,
        ), host_rows

    def _host_enclosure(
        self,
        rule: Rule,
        host_rows: Sequence[HostRow],
        profile: PhaseProfile,
    ) -> List[Violation]:
        """The rows fused launches cannot take: exact edge-based enclosure
        margins for rectilinear shapes, computed on the host."""
        out: List[Violation] = []
        for via_items, metal_items in host_rows:
            vias = self._flatten_items(via_items, rule.layer)
            metals = self._flatten_items(metal_items, rule.other_layer)
            with self._kernel_phase(profile):
                out.extend(
                    check_enclosure(vias, metals, rule.layer, rule.other_layer, rule.value)
                )
        return out

    # -- width and area: once per definition, instantiated per placement -----------

    def _definitions(self, layer: int) -> DefinitionBuffers:
        """The layer's checked definitions, shared by its width and area rules."""

        def build() -> DefinitionBuffers:
            with self._pack_timer():
                return self.table.definitions(layer)

        return self.pack_cache.get("definitions", layer, None, build)

    def _run_width(self, rule: Rule, profile: PhaseProfile) -> ViolationTable:
        layer, value = rule.layer, rule.value
        stream = self.streams[0]
        host_start = time.perf_counter()
        defs = self._definitions(layer)
        with self._pack_timer():
            # Ring ids are unique per ring, so width stays intra-polygon.
            frame = Frame.of_rects(defs.mbrs, value)
            buffers = edges_from_vertices(*frame.shift(defs.xs, defs.ys), defs.counts)
        self.device.record_host("pack-edges", time.perf_counter() - host_start)

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
        regions = frame.restore(batch.xlo, batch.ylo, batch.xhi, batch.yhi)
        return self._instantiate(
            defs, batch.poly_a, regions, batch.measured, ViolationKind.WIDTH, layer, value
        )

    def _run_area(self, rule: Rule, profile: PhaseProfile) -> ViolationTable:
        layer, value = rule.layer, rule.value
        stream = self.streams[0]
        host_start = time.perf_counter()
        defs = self._definitions(layer)
        self.device.record_host("pack-vertices", time.perf_counter() - host_start)
        if not len(defs.counts):
            return ViolationTable.from_rows(())
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

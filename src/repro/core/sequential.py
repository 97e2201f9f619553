"""The sequential backend (paper §IV-D): hierarchical CPU checking.

Pipeline per rule:

1. **Adaptive row partition** of the top level (paper §IV-B) so that rows
   can be swept independently;
2. **MBR sweepline** (a sort-and-scan, paper Fig. 3) to find candidate
   pairs at every hierarchy level, with the §IV-C eliminations: id-ordered
   pairs (the sweep reports each unordered pair once), memoised per-cell
   internal results reused across instances, and rule-inflated-MBR
   disjointness pruning (disjoint pairs are simply never reported);
3. **Edge-based checks** on the surviving pairs.

Each of the three stages is attributed to its profile phase, which is what
the Fig. 4 runtime-breakdown benchmark reads out.

Per-rule-kind behaviour is resolved through the plan's
:data:`~repro.core.plan.KIND_SPECS` table — this module implements the
*strategies* (``intra`` / ``pairwise`` / ``cross_layer`` / ``coloring``)
and carries no kind table of its own.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..checks.base import Shape, Violation, ring_shape, shape_mbr
from ..geometry import IDENTITY, Rect, Transform, union_all
from ..geometry.transform import (
    Row,
    compose_rows,
    invert_row,
    rigid_row,
    row_rect,
    row_transform,
)
from ..hierarchy.pruning import (
    IntraCheckScheduler,
    LevelItem,
    PlacedRing,
    PruningStats,
    gather_pair_rings,
    place_rows,
)
from ..hierarchy.tree import HierarchyTree
from ..layout.cell import Cell, RingBuffer
from ..layout.library import Layout
from ..partition.rows import margin_for_rule
from ..spatial.sweepline import Box, iter_bipartite_overlaps, report_overlapping_pairs
from ..util.profile import (
    PHASE_EDGE_CHECKS,
    PHASE_OTHER,
    PHASE_PARTITION,
    PHASE_SWEEPLINE,
    PhaseProfile,
)
from ..violation_table import Row as VRow
from ..violation_table import ViolationTable, violation_row
from .plan import CheckPlan, PlanCaches, kind_spec
from .rules import Rule


class SequentialBackend:
    """Executes a plan's rules with the hierarchical CPU algorithms."""

    def __init__(
        self,
        plan_or_layout,
        *,
        tree: Optional[HierarchyTree] = None,
        use_rows: bool = True,
        caches: Optional[PlanCaches] = None,
    ) -> None:
        if isinstance(plan_or_layout, CheckPlan):
            self.plan: Optional[CheckPlan] = plan_or_layout
            self.layout: Layout = self.plan.layout
            self.tree = self.plan.tree
            self.caches = self.plan.caches
        else:
            self.plan = None
            self.layout = plan_or_layout
            self.tree = tree if tree is not None else HierarchyTree(plan_or_layout)
            self.caches = caches if caches is not None else PlanCaches(self.tree)
        #: Row partition of the top cell's level pairs (§IV-B); the
        #: KLayout-like deep baseline turns it off.
        self.use_rows = use_rows
        self.subtree = self.caches.subtree
        self.pruning = PruningStats()
        self._pair_memo: Dict[tuple, List[VRow]] = {}

    def _level_items(self, cell: Cell, layer: int) -> List[LevelItem]:
        return self.caches.level_items(cell, layer)

    # -- rule dispatch ------------------------------------------------------

    def run(self, rule: Rule, profile: Optional[PhaseProfile] = None) -> ViolationTable:
        """Execute one rule; violations are in top-cell coordinates.

        Intra and pairwise rules pass violation rows
        (:mod:`repro.violation_table`) up the hierarchy, so a marker placed
        under k instances is k rows, not k ``Violation`` objects; each
        strategy entry point returns its table, built once.
        """
        if profile is None:
            profile = PhaseProfile()
        spec = kind_spec(rule.kind)
        strategy = getattr(self, f"_run_{spec.sequential}")
        return strategy(rule, spec, profile)

    def stats(self) -> Dict[str, float]:
        """Cumulative pruning and cache counters (for CheckResult.stats)."""
        store = self.caches.store
        cache = store.counters() if store is not None else {}
        return dict(
            checks_run=self.pruning.checks_run,
            checks_reused=self.pruning.checks_reused,
            checks_refreshed=self.pruning.checks_refreshed,
            pairs_considered=self.pruning.pairs_considered,
            pairs_pruned_mbr=self.pruning.pairs_pruned_mbr,
            pack_cache_hits=self.caches.pack.hits,
            pack_cache_misses=self.caches.pack.misses,
            cache_hits=cache.get("hits", 0),
            cache_misses=cache.get("misses", 0),
            cache_corrupt=cache.get("corrupt", 0),
            cache_bytes_read=cache.get("bytes_read", 0),
            cache_bytes_written=cache.get("bytes_written", 0),
        )

    def close(self) -> None:
        """Flush pack-store counter deltas (idempotent; engine calls this)."""
        store = self.caches.store
        if store is not None:
            store.persist_counters()

    # -- strategy entry points (bound by plan.KIND_SPECS) ----------------------

    def _run_intra(self, rule: Rule, spec, profile: PhaseProfile) -> ViolationTable:
        return ViolationTable.of(self._intra(rule, spec, profile))

    def _run_pairwise(self, rule: Rule, spec, profile: PhaseProfile) -> ViolationTable:
        return ViolationTable.from_rows(
            self._pairwise(rule.layer, rule.value, spec.procedures(), profile)
        )

    def _run_cross_layer(
        self, rule: Rule, spec, profile: PhaseProfile
    ) -> ViolationTable:
        return ViolationTable.from_violations(
            self._cross_layer(
                rule.layer, rule.other_layer, rule.value, spec.procedures(), profile
            )
        )

    def _run_coloring(self, rule: Rule, spec, profile: PhaseProfile) -> ViolationTable:
        return ViolationTable.from_violations(self._coloring(rule.layer, rule.value, profile))

    # -- intra-polygon rules (paper §IV-C intra checks) ------------------------

    def _intra(self, rule: Rule, spec, profile: PhaseProfile) -> ViolationTable:
        layers = [rule.layer] if rule.layer is not None else self.layout.layers()
        scheduler = IntraCheckScheduler(self.tree)
        check, invariance = spec.intra(rule)
        with profile.phase(PHASE_EDGE_CHECKS):
            tables = [
                scheduler.run(
                    layer,
                    lambda rings, placement, _layer=layer: check(rings, _layer, placement),
                    invariance=invariance,
                )
                for layer in layers
            ]
        self._merge_stats(scheduler.stats)
        return tables[0] if len(tables) == 1 else ViolationTable.concat(tables)

    # -- spacing (intra-layer inter-polygon) --------------------------------------

    def _pairwise(
        self,
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[VRow]:
        """Generic intra-layer pairwise rule (spacing, corner spacing)."""
        memo: Dict[str, List[VRow]] = {}
        # Pair memo (paper §IV-C): a cross-instance check depends only on the
        # two definitions and their *relative position* ("another
        # instantiation of them may not be of the same relative position" is
        # the paper's reuse condition; we key on it directly), so repeated
        # abutments — ubiquitous in row-based layouts — are checked once.
        self._pair_memo: Dict[tuple, List[VRow]] = {}

        def internal(cell_name: str) -> List[VRow]:
            """Complete pairwise violations of one cell's subtree (local coords)."""
            cached = memo.get(cell_name)
            if cached is not None:
                self.pruning.checks_reused += 1
                return cached
            self.pruning.checks_run += 1
            cell = self.layout.cell(cell_name)
            vios = self._level_pairs(cell, layer, value, procedures, profile)
            vios.extend(children(cell))
            memo[cell_name] = vios
            return vios

        def children(cell: Cell) -> List[VRow]:
            """Every child's internal violations, placed."""
            vios: List[VRow] = []
            for ref in cell.references:
                if not self.tree.has_layer(ref.cell_name, layer):
                    continue
                child_vios = internal(ref.cell_name)
                for placement in ref.placements():
                    if placement.preserves_distances:
                        vios.extend(place_rows(child_vios, rigid_row(placement)))
                    else:
                        self.pruning.checks_refreshed += 1
                        vios.extend(
                            self._flat_subtree_pairs(
                                ref.cell_name, placement, layer, value, procedures, profile
                            )
                        )
            return vios

        top = self.tree.top
        with profile.phase(PHASE_OTHER):
            items = self._level_items(top, layer)
        vios = self._top_level_pairs(top, items, layer, value, procedures, profile)
        vios.extend(children(top))
        return vios

    def _top_level_pairs(
        self,
        top: Cell,
        items: List[LevelItem],
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[VRow]:
        """Level pairs of the top cell, row-partitioned when enabled."""
        rings = top.rings(layer)
        vios = self._self_pairs(rings, layer, value, procedures, profile)
        member_rows, _sig = self.caches.partition_rows(
            layer,
            [it.mbr for it in items],
            value,
            use_rows=self.use_rows,
            cold_timer=lambda: profile.phase(PHASE_PARTITION),
        )
        for row in member_rows:
            group = [items[m] for m in row]
            vios.extend(self._group_pairs(rings, group, layer, value, procedures, profile))
        return vios

    def _level_pairs(
        self,
        cell: Cell,
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[VRow]:
        """Self checks plus this level's cross-item pairs (no recursion)."""
        rings = cell.rings(layer)
        vios = self._self_pairs(rings, layer, value, procedures, profile)
        with profile.phase(PHASE_OTHER):
            items = self._level_items(cell, layer)
        vios.extend(self._group_pairs(rings, items, layer, value, procedures, profile))
        return vios

    def _self_pairs(
        self, rings: Optional[RingBuffer], layer: int, value: int, procedures, profile
    ) -> List[VRow]:
        """Each local ring against itself. A rectangle is skipped: it has no
        notch, and its convex corners all open away from each other."""
        vios: List[VRow] = []
        if rings:
            with profile.phase(PHASE_EDGE_CHECKS):
                for index, rectangle in enumerate(rings.rect_flags()):
                    if not rectangle:
                        prepared = procedures.prepare(rings.points(index))
                        vios.extend(
                            map(violation_row, procedures.self_violations(prepared, layer, value))
                        )
        return vios

    def _group_pairs(
        self,
        rings: Optional[RingBuffer],
        items: Sequence[LevelItem],
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[VRow]:
        margin = margin_for_rule(value)
        with profile.phase(PHASE_SWEEPLINE):
            inflated = [it.mbr.inflated(margin) for it in items]
            pairs = report_overlapping_pairs(inflated)
            self.pruning.pairs_considered += len(pairs)
            self.pruning.pairs_pruned_mbr += (
                len(items) * (len(items) - 1) // 2 - len(pairs)
            )
        vios: List[VRow] = []
        for i, j in pairs:
            vios.extend(
                self._pair_check(rings, items[i], items[j], layer, value, procedures, profile)
            )
        return vios

    def _pair_check(
        self,
        rings: Optional[RingBuffer],
        item_a: LevelItem,
        item_b: LevelItem,
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[VRow]:
        """One candidate pair, with relative-position memoisation."""
        key = None
        if (
            item_a.cell_name is not None
            and item_b.cell_name is not None
            and item_a.placement.preserves_distances
            and item_b.placement.preserves_distances
        ):
            row_a = rigid_row(item_a.placement)
            inverse_a = invert_row(row_a)
            relative = compose_rows(inverse_a, rigid_row(item_b.placement))
            key = (item_a.cell_name, item_b.cell_name, relative)
            cached = self._pair_memo.get(key)
            if cached is not None:
                self.pruning.checks_reused += 1
                return place_rows(cached, row_a)
        with profile.phase(PHASE_SWEEPLINE):
            side_a, side_b = gather_pair_rings(
                rings, item_a, item_b, self.subtree, layer, value
            )
        with profile.phase(PHASE_EDGE_CHECKS):
            found = self._cross_pairs(side_a, side_b, layer, value, procedures)
        if key is not None:
            self._pair_memo[key] = place_rows(found, inverse_a)
        return found

    def _cross_pairs(
        self,
        side_a: Sequence[PlacedRing],
        side_b: Sequence[PlacedRing],
        layer: int,
        value: int,
        procedures,
    ) -> List[VRow]:
        """Edge checks between two placed-ring sets, MBR-pruned per pair;
        each ring is prepared once, and only if some pair needs it."""
        vios: List[VRow] = []
        prepare = procedures.prepare
        ready_a: Dict[int, object] = {}
        ready_b: Dict[int, object] = {}
        inflated_a = _windows([mbr for _, mbr in side_a], value)
        for i, j in iter_bipartite_overlaps(inflated_a, [mbr for _, mbr in side_b]):
            a = ready_a.get(i)
            if a is None:
                a = ready_a[i] = prepare(side_a[i][0])
            b = ready_b.get(j)
            if b is None:
                b = ready_b[j] = prepare(side_b[j][0])
            vios.extend(map(violation_row, procedures.cross_violations(a, b, layer, value)))
        return vios

    def _flat_subtree_pairs(
        self,
        cell_name: str,
        placement: Transform,
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[VRow]:
        """Fallback for non-distance-preserving placements: flatten and check."""
        window = placement.apply_rect(self.tree.layer_mbr(cell_name, layer))
        polygons = self.subtree.polygons_in_window(cell_name, placement, layer, window)
        with profile.phase(PHASE_EDGE_CHECKS):
            return list(map(violation_row, procedures.flat_check(polygons, layer, value)))

    # -- enclosure (inter-layer) -----------------------------------------------

    def _cross_layer(
        self,
        via_layer: int,
        metal_layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Violation]:
        """Pending-object resolution up the hierarchy (enclosure, overlap).

        Each cell definition resolves its subtree's target polygons against
        its own subtree's partner layer once; objects not yet satisfied
        propagate upward (more partner geometry may appear in an ancestor or
        a sibling — both enclosure and overlap satisfaction are monotone in
        the candidate set, which is what makes this sound). Survivors at the
        top are violations. A via travels as a :data:`~repro.checks.base.Shape`:
        its MBR (a ``Rect``) when the ring buffers' rectangle column flags it,
        a ``Polygon`` otherwise.
        """
        memo: Dict[str, List[Shape]] = {}

        def pending(cell_name: str) -> List[Shape]:
            cached = memo.get(cell_name)
            if cached is not None:
                self.pruning.checks_reused += 1
                return cached
            self.pruning.checks_run += 1
            cell = self.layout.cell(cell_name)
            candidates_pending = _ring_vias(cell.rings(via_layer))
            for ref in cell.references:
                if not self.tree.has_layer(ref.cell_name, via_layer):
                    continue
                placements = list(ref.placements())
                if all(p.preserves_distances for p in placements):
                    child_pending = pending(ref.cell_name)
                else:
                    # Margins scale under magnification: re-resolve the whole
                    # subtree's vias at this level instead of reusing.
                    self.pruning.checks_refreshed += 1
                    child_pending = self._all_subtree_vias(ref.cell_name, via_layer)
                for placement in placements:
                    if placement.preserves_distances:
                        row = rigid_row(placement)
                        candidates_pending += (_row_via(row, via) for via in child_pending)
                    else:
                        candidates_pending += (
                            placement.apply_rect(via)
                            if type(via) is Rect
                            else via.transformed(placement)
                            for via in child_pending
                        )
            unresolved = self._resolve_vias(
                cell_name, candidates_pending, metal_layer, value, procedures, profile
            )
            memo[cell_name] = unresolved
            return unresolved

        top = self.tree.top
        survivors = pending(top.name)
        vios: List[Violation] = []
        with profile.phase(PHASE_EDGE_CHECKS):
            # Every survivor against all metal in its window: one sweep over
            # the top level's items, then a gather per child item hit.
            rings = top.rings(metal_layer)
            rectangle = rings.rect_flags() if rings else b""
            items = self._level_items(top, metal_layer)
            windows = _windows(map(shape_mbr, survivors), value)
            metals: List[List[Shape]] = [[] for _ in survivors]
            for e, j in iter_bipartite_overlaps(windows, [it.mbr for it in items]):
                item = items[j]
                if item.index is not None:
                    metals[e].append(
                        item.mbr
                        if rectangle[item.index]
                        else ring_shape(rings.points(item.index), item.mbr)
                    )
                else:
                    metals[e].extend(
                        ring_shape(ring, mbr)
                        for ring, mbr in self.subtree.rings_in_window(
                            item.cell_name, item.placement, metal_layer, Rect._make(windows[e])
                        )
                    )
            for via, found in zip(survivors, metals):
                vios.extend(procedures.violations(via, found, via_layer, metal_layer, value))
        return vios

    def _resolve_vias(
        self,
        cell_name: str,
        vias: List[Shape],
        metal_layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Shape]:
        """Drop every via (in ``cell_name``'s frame) its subtree's metal satisfies.

        Vias are pushed down instead of metal pulled up (paper §IV-C reuse),
        parents first: each definition gathers the pending ``(index, via in
        its frame)`` entries of *all* of its parents before it sweeps, so
        however many parents place it, it is entered once (:meth:`_descend`).
        The queued definitions sit in a max-heap on their topological
        position, so a resolution touches only the definitions it enters.
        """
        satisfied = [False] * len(vias)
        frontier: Dict[str, List[Tuple[int, Shape]]] = {cell_name: list(enumerate(vias))}
        queue = [-self.tree.position[cell_name]]
        while queue:
            name = self.tree.order[-heapq.heappop(queue)]
            self._descend(
                name,
                frontier.pop(name),
                satisfied,
                (frontier, queue),
                metal_layer,
                value,
                procedures,
                profile,
            )
        return [via for via, ok in zip(vias, satisfied) if not ok]

    def _descend(
        self,
        cell_name: str,
        entries: List[Tuple[int, Shape]],
        satisfied: List[bool],
        frontier: Tuple[Dict[str, List[Tuple[int, Shape]]], List[int]],
        metal_layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> None:
        """One definition's step of the via descent.

        ``entries`` are ``(index into satisfied, via in this cell's frame)``;
        ``frontier`` is the resolution's pending entries per definition and
        its heap of their negated topological positions.
        One bipartite MBR sweep pairs via windows with this level's metal
        items; a via is judged once against all of its local candidates, and
        the vias paired with rigid child instances are mapped into the
        child's frame and queued on the child's ``frontier`` entry, so a
        definition placed k times is swept once and no metal is transformed.
        A rectangular via meeting a rectangular metal ring is judged on the
        spot when ``procedures.box_satisfied`` can decide the pair alone.
        Sound because satisfaction is monotone in the candidate set and
        invariant under rigid maps, and every survivor is re-judged at the
        top against all metal in its window (docs/algorithms.md §5).
        """
        entries = [entry for entry in entries if not satisfied[entry[0]]]
        if not entries:
            return
        box_satisfied = procedures.box_satisfied
        with profile.phase(PHASE_SWEEPLINE):
            cell = self.layout.cell(cell_name)
            rings = cell.rings(metal_layer)
            rectangle = rings.rect_flags() if rings else b""
            items = self._level_items(cell, metal_layer)
            windows = _windows((shape_mbr(via) for _, via in entries), value)
            candidates: Dict[int, List[Shape]] = {}
            of_child: Dict[int, List[int]] = {}
            local: Dict[int, Shape] = {}
            for e, j in iter_bipartite_overlaps(windows, [it.mbr for it in items]):
                item = items[j]
                index = item.index
                if index is None:
                    of_child.setdefault(j, []).append(e)
                    continue
                if not rectangle[index]:
                    metal = local.get(j)
                    if metal is None:
                        metal = local[j] = ring_shape(rings.points(index), item.mbr)
                elif box_satisfied is None or type(entries[e][1]) is not Rect:
                    metal = item.mbr
                else:
                    if box_satisfied(windows[e], item.mbr):
                        satisfied[entries[e][0]] = True
                    continue
                candidates.setdefault(e, []).append(metal)
            # Margins scale under magnification: pull such a subtree's metal
            # up over the union of its vias' windows, as candidates here.
            for j, paired in of_child.items():
                if items[j].placement.preserves_distances:
                    continue
                near = [windows[e] for e in paired]
                metals = self.subtree.polygons_in_window(
                    items[j].cell_name,
                    items[j].placement,
                    metal_layer,
                    union_all(map(Rect._make, near)),
                )
                for k, m in iter_bipartite_overlaps(near, [metal.mbr for metal in metals]):
                    candidates.setdefault(paired[k], []).append(metals[m])
        with profile.phase(PHASE_EDGE_CHECKS):
            for e, metals in candidates.items():
                index, via = entries[e]
                if not satisfied[index] and procedures.satisfied(via, metals, value):
                    satisfied[index] = True
        pending, queue = frontier
        for j, paired in of_child.items():
            item = items[j]
            if item.placement.preserves_distances:
                inverse = invert_row(rigid_row(item.placement))
                batch = pending.get(item.cell_name)
                if batch is None:
                    batch = pending[item.cell_name] = []
                    heapq.heappush(queue, -self.tree.position[item.cell_name])
                for index, via in (entries[e] for e in paired):
                    if not satisfied[index]:
                        batch.append((index, _row_via(inverse, via)))

    def _all_subtree_vias(self, cell_name: str, via_layer: int) -> List[Shape]:
        window = self.tree.layer_mbr(cell_name, via_layer)
        polygons = self.subtree.polygons_in_window(cell_name, IDENTITY, via_layer, window)
        return [polygon.mbr if polygon.is_rectangle else polygon for polygon in polygons]

    def _coloring(self, layer: int, value: int, profile: PhaseProfile) -> List[Violation]:
        """Double-patterning decomposition check (paper §II).

        Coloring is a global graph property: conflicts may chain across
        instances, so definition-level memoisation does not apply. The flat
        conflict graph is built over canonically ordered polygons (both
        execution modes share this path, keeping reported odd-cycle markers
        identical), and — because conflict edges are shorter than the rule —
        components never cross adaptive-partition rows.
        """
        from ..checks.coloring import check_two_colorable
        from ..layout.flatten import flatten_layer

        with profile.phase(PHASE_OTHER):
            polygons = flatten_layer(self.layout, layer, top=self.tree.top.name)
            polygons.sort(key=lambda p: (p.mbr, p.canonical_vertices()))
        with profile.phase(PHASE_EDGE_CHECKS):
            return check_two_colorable(polygons, layer, value)

    # -- bookkeeping -------------------------------------------------------------

    def _merge_stats(self, stats: PruningStats) -> None:
        self.pruning.checks_run += stats.checks_run
        self.pruning.checks_reused += stats.checks_reused
        self.pruning.checks_refreshed += stats.checks_refreshed
        self.pruning.pairs_considered += stats.pairs_considered
        self.pruning.pairs_pruned_mbr += stats.pairs_pruned_mbr


def _ring_vias(rings: Optional[RingBuffer]) -> List[Shape]:
    """Every ring of a buffer as a pending via, in its frame."""
    if not rings:
        return []
    mbrs = rings.mbrs
    table = map(Rect._make, zip(mbrs[0::4], mbrs[1::4], mbrs[2::4], mbrs[3::4]))
    return [
        mbr if rectangle else ring_shape(rings.points(index), mbr)
        for index, (rectangle, mbr) in enumerate(zip(rings.rect_flags(), table))
    ]


def _row_via(row: Row, via: Shape) -> Shape:
    """``via`` through an integer rigid placement row; a rectangle stays a
    ``Rect``."""
    if type(via) is Rect:
        return row_rect(row, via)
    return via.transformed(row_transform(row))


def _windows(boxes: Iterable[Box], value: int) -> List[Box]:
    """Each box grown by ``value`` on every side (non-empty boxes, ``value``
    positive: what ``Rect.inflated`` returns, as a plain tuple)."""
    return [(xlo - value, ylo - value, xhi + value, yhi + value) for xlo, ylo, xhi, yhi in boxes]

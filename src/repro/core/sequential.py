"""The sequential backend (paper §IV-D): hierarchical CPU checking.

Pipeline per rule:

1. **Adaptive row partition** of the top level (paper §IV-B) so that rows
   can be swept independently;
2. **MBR sweepline** (interval-tree status, paper Fig. 3) to find candidate
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

from typing import Dict, List, Optional, Sequence, Tuple

from ..checks.base import Violation
from ..geometry import IDENTITY, Polygon, Transform, union_all
from ..hierarchy.pruning import (
    IntraCheckScheduler,
    LevelItem,
    PruningStats,
    gather_pair_polygons,
)
from ..hierarchy.query import invert
from ..hierarchy.tree import HierarchyTree
from ..layout.cell import Cell
from ..layout.library import Layout
from ..partition.rows import margin_for_rule
from ..spatial.sweepline import near_pairs, report_overlapping_pairs
from ..util.profile import (
    PHASE_EDGE_CHECKS,
    PHASE_OTHER,
    PHASE_PARTITION,
    PHASE_SWEEPLINE,
    PhaseProfile,
)
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
            self.use_rows = self.plan.options.use_rows
        else:
            self.plan = None
            self.layout = plan_or_layout
            self.tree = tree if tree is not None else HierarchyTree(plan_or_layout)
            self.caches = caches if caches is not None else PlanCaches(self.tree)
            self.use_rows = use_rows
        self.subtree = self.caches.subtree
        self.pruning = PruningStats()
        self._pair_memo: Dict[tuple, List[Violation]] = {}

    def _level_items(self, cell: Cell, layer: int) -> List[LevelItem]:
        return self.caches.level_items(cell, layer)

    # -- rule dispatch ------------------------------------------------------

    def run(self, rule: Rule, profile: Optional[PhaseProfile] = None) -> List[Violation]:
        """Execute one rule; violations are in top-cell coordinates."""
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

    def _run_intra(self, rule: Rule, spec, profile: PhaseProfile) -> List[Violation]:
        return self._intra(rule, spec, profile)

    def _run_pairwise(self, rule: Rule, spec, profile: PhaseProfile) -> List[Violation]:
        return self._pairwise(rule.layer, rule.value, spec.procedures(), profile)

    def _run_cross_layer(
        self, rule: Rule, spec, profile: PhaseProfile
    ) -> List[Violation]:
        return self._cross_layer(
            rule.layer, rule.other_layer, rule.value, spec.procedures(), profile
        )

    def _run_coloring(self, rule: Rule, spec, profile: PhaseProfile) -> List[Violation]:
        return self._coloring(rule.layer, rule.value, profile)

    # -- intra-polygon rules (paper §IV-C intra checks) ------------------------

    def _intra(self, rule: Rule, spec, profile: PhaseProfile) -> List[Violation]:
        layers = [rule.layer] if rule.layer is not None else self.layout.layers()
        scheduler = IntraCheckScheduler(self.tree)
        check, invariance = spec.intra(rule)
        out: List[Violation] = []
        with profile.phase(PHASE_EDGE_CHECKS):
            for layer in layers:
                out.extend(
                    scheduler.run(
                        layer,
                        lambda cell, _layer=layer: check(cell, _layer),
                        invariance=invariance,
                    )
                )
        self._merge_stats(scheduler.stats)
        return out

    # -- spacing (intra-layer inter-polygon) --------------------------------------

    def _pairwise(
        self,
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Violation]:
        """Generic intra-layer pairwise rule (spacing, corner spacing)."""
        memo: Dict[str, List[Violation]] = {}
        # Pair memo (paper §IV-C): a cross-instance check depends only on the
        # two definitions and their *relative position* ("another
        # instantiation of them may not be of the same relative position" is
        # the paper's reuse condition; we key on it directly), so repeated
        # abutments — ubiquitous in row-based layouts — are checked once.
        self._pair_memo: Dict[tuple, List[Violation]] = {}

        def internal(cell_name: str) -> List[Violation]:
            """Complete pairwise violations of one cell's subtree (local coords)."""
            cached = memo.get(cell_name)
            if cached is not None:
                self.pruning.checks_reused += 1
                return cached
            self.pruning.checks_run += 1
            cell = self.layout.cell(cell_name)
            vios = self._level_pairs(cell, layer, value, procedures, profile)
            for ref in cell.references:
                if not self.tree.has_layer(ref.cell_name, layer):
                    continue
                child_vios = internal(ref.cell_name)
                for placement in ref.placements():
                    if placement.preserves_distances:
                        vios.extend(v.transformed(placement) for v in child_vios)
                    else:
                        self.pruning.checks_refreshed += 1
                        vios.extend(
                            self._flat_subtree_pairs(
                                ref.cell_name, placement, layer, value, procedures, profile
                            )
                        )
            memo[cell_name] = vios
            return vios

        top = self.tree.top
        with profile.phase(PHASE_OTHER):
            items = self._level_items(top, layer)
        vios = self._top_level_pairs(top, items, layer, value, procedures, profile)
        for ref in top.references:
            if not self.tree.has_layer(ref.cell_name, layer):
                continue
            child_vios = internal(ref.cell_name)
            for placement in ref.placements():
                if placement.preserves_distances:
                    vios.extend(v.transformed(placement) for v in child_vios)
                else:
                    self.pruning.checks_refreshed += 1
                    vios.extend(
                        self._flat_subtree_pairs(
                            ref.cell_name, placement, layer, value, procedures, profile
                        )
                    )
        return vios

    def _top_level_pairs(
        self,
        top: Cell,
        items: List[LevelItem],
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Violation]:
        """Level pairs of the top cell, row-partitioned when enabled."""
        vios: List[Violation] = []
        with profile.phase(PHASE_EDGE_CHECKS):
            for polygon in top.polygons(layer):
                vios.extend(procedures.self_violations(polygon, layer, value))

        member_rows, _sig = self.caches.partition_rows(
            layer,
            [it.mbr for it in items],
            value,
            use_rows=self.use_rows,
            cold_timer=lambda: profile.phase(PHASE_PARTITION),
        )
        groups: List[List[LevelItem]] = [
            [items[m] for m in row] for row in member_rows
        ]

        for group in groups:
            vios.extend(self._group_pairs(group, layer, value, procedures, profile))
        return vios

    def _level_pairs(
        self,
        cell: Cell,
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Violation]:
        """Self checks plus this level's cross-item pairs (no recursion)."""
        vios: List[Violation] = []
        with profile.phase(PHASE_EDGE_CHECKS):
            for polygon in cell.polygons(layer):
                vios.extend(procedures.self_violations(polygon, layer, value))
        with profile.phase(PHASE_OTHER):
            items = self._level_items(cell, layer)
        vios.extend(self._group_pairs(items, layer, value, procedures, profile))
        return vios

    def _group_pairs(
        self,
        items: Sequence[LevelItem],
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Violation]:
        margin = margin_for_rule(value)
        with profile.phase(PHASE_SWEEPLINE):
            inflated = [it.mbr.inflated(margin) for it in items]
            pairs = report_overlapping_pairs(inflated)
            self.pruning.pairs_considered += len(pairs)
            self.pruning.pairs_pruned_mbr += (
                len(items) * (len(items) - 1) // 2 - len(pairs)
            )
        vios: List[Violation] = []
        for i, j in pairs:
            vios.extend(
                self._pair_check(items[i], items[j], layer, value, procedures, profile)
            )
        return vios

    def _pair_check(
        self,
        item_a: LevelItem,
        item_b: LevelItem,
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Violation]:
        """One candidate pair, with relative-position memoisation."""
        key = None
        if (
            item_a.cell_name is not None
            and item_b.cell_name is not None
            and item_a.placement.preserves_distances
            and item_b.placement.preserves_distances
        ):
            inverse_a = invert(item_a.placement)
            relative = inverse_a.compose(item_b.placement)
            key = (item_a.cell_name, item_b.cell_name, relative)
            cached = self._pair_memo.get(key)
            if cached is not None:
                self.pruning.checks_reused += 1
                return [v.transformed(item_a.placement) for v in cached]
        with profile.phase(PHASE_SWEEPLINE):
            side_a, side_b = gather_pair_polygons(
                item_a, item_b, self.subtree, layer, value
            )
        with profile.phase(PHASE_EDGE_CHECKS):
            found = self._cross_pairs(side_a, side_b, layer, value, procedures)
        if key is not None:
            self._pair_memo[key] = [v.transformed(inverse_a) for v in found]
        return found

    def _cross_pairs(
        self,
        side_a: Sequence[Polygon],
        side_b: Sequence[Polygon],
        layer: int,
        value: int,
        procedures,
    ) -> List[Violation]:
        """Edge checks between two polygon sets, MBR-pruned per pair."""
        vios: List[Violation] = []
        inflated_a = [p.mbr.inflated(value) for p in side_a]
        for i, j in near_pairs(inflated_a, [p.mbr for p in side_b]):
            vios.extend(procedures.cross_violations(side_a[i], side_b[j], layer, value))
        return vios

    def _flat_subtree_pairs(
        self,
        cell_name: str,
        placement: Transform,
        layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Violation]:
        """Fallback for non-distance-preserving placements: flatten and check."""
        window = placement.apply_rect(self.tree.layer_mbr(cell_name, layer))
        polygons = self.subtree.polygons_in_window(cell_name, placement, layer, window)
        with profile.phase(PHASE_EDGE_CHECKS):
            return procedures.flat_check(polygons, layer, value)

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
        top are violations.
        """
        memo: Dict[str, List[Polygon]] = {}

        def pending(cell_name: str) -> List[Polygon]:
            cached = memo.get(cell_name)
            if cached is not None:
                self.pruning.checks_reused += 1
                return cached
            self.pruning.checks_run += 1
            cell = self.layout.cell(cell_name)
            candidates_pending: List[Polygon] = list(cell.polygons(via_layer))
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
                    candidates_pending.extend(
                        p.transformed(placement) for p in child_pending
                    )
            unresolved = self._resolve_vias(
                cell_name, candidates_pending, metal_layer, value, procedures, profile
            )
            memo[cell_name] = unresolved
            return unresolved

        survivors = pending(self.tree.top.name)
        vios: List[Violation] = []
        with profile.phase(PHASE_EDGE_CHECKS):
            for via in survivors:
                window = via.mbr.inflated(value)
                metals = self.subtree.polygons_in_window(
                    self.tree.top.name, IDENTITY, metal_layer, window
                )
                vios.extend(
                    procedures.violations(via, metals, via_layer, metal_layer, value)
                )
        return vios

    def _resolve_vias(
        self,
        cell_name: str,
        vias: List[Polygon],
        metal_layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Polygon]:
        """Drop every via (in ``cell_name``'s frame) its subtree's metal satisfies."""
        satisfied = [False] * len(vias)
        self._descend(
            cell_name, list(enumerate(vias)), satisfied, metal_layer, value, procedures, profile
        )
        return [via for via, ok in zip(vias, satisfied) if not ok]

    def _descend(
        self,
        cell_name: str,
        entries: List[Tuple[int, Polygon]],
        satisfied: List[bool],
        metal_layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> None:
        """Push vias down instead of pulling metal up (paper §IV-C reuse).

        ``entries`` are ``(index into satisfied, via in this cell's frame)``.
        One bipartite MBR sweep pairs via windows with this level's metal
        items; a via is judged once against all of its local candidates, and
        the vias paired with rigid child instances are mapped into the
        child's frame and batched per *definition*, so a definition placed k
        times is swept once and no metal is transformed. Sound because
        satisfaction is monotone in the candidate set and invariant under
        rigid maps, and every survivor is re-judged at the top against all
        metal in its window (docs/algorithms.md §5).
        """
        entries = [entry for entry in entries if not satisfied[entry[0]]]
        if not entries:
            return
        with profile.phase(PHASE_SWEEPLINE):
            items = self._level_items(self.layout.cell(cell_name), metal_layer)
            windows = [via.mbr.inflated(value) for _, via in entries]
            candidates: Dict[int, List[Polygon]] = {}
            of_child: Dict[int, List[int]] = {}
            for e, j in near_pairs(windows, [it.mbr for it in items]):
                if items[j].polygon is not None:
                    candidates.setdefault(e, []).append(items[j].polygon)
                else:
                    of_child.setdefault(j, []).append(e)
            # Margins scale under magnification: pull such a subtree's metal
            # up over the union of its vias' windows, as candidates here.
            for j, paired in of_child.items():
                if items[j].placement.preserves_distances:
                    continue
                near = [windows[e] for e in paired]
                metals = self.subtree.polygons_in_window(
                    items[j].cell_name, items[j].placement, metal_layer, union_all(near)
                )
                for k, m in near_pairs(near, [metal.mbr for metal in metals]):
                    candidates.setdefault(paired[k], []).append(metals[m])
        with profile.phase(PHASE_EDGE_CHECKS):
            for e, metals in candidates.items():
                index, via = entries[e]
                if not satisfied[index] and procedures.satisfied(via, metals, value):
                    satisfied[index] = True
        batches: Dict[str, List[Tuple[int, Polygon]]] = {}
        for j, paired in of_child.items():
            if items[j].placement.preserves_distances:
                inverse = invert(items[j].placement)
                batch = batches.setdefault(items[j].cell_name, [])
                for index, via in (entries[e] for e in paired):
                    if not satisfied[index]:
                        batch.append((index, via.transformed(inverse)))
        for child_name, batch in batches.items():
            self._descend(
                child_name, batch, satisfied, metal_layer, value, procedures, profile
            )

    def _all_subtree_vias(self, cell_name: str, via_layer: int) -> List[Polygon]:
        window = self.tree.layer_mbr(cell_name, via_layer)
        return self.subtree.polygons_in_window(cell_name, IDENTITY, via_layer, window)

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

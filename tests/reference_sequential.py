"""The sequential engine's procedures before it moved onto the columnar
buffers — kept here as the reference ``tests/test_sequential_reference.py``
holds the engine to, marker for marker.

* :func:`iter_instances` — every instance under the top with its
  accumulated transform (the walk ``HierarchyTree.iter_instances`` did);
* :class:`ReferenceIntraScheduler` — the intra walk over it: one check per
  definition, every marker transformed per instance, and a ``Cell`` rebuilt
  from placed polygons for a placement that breaks the rule's invariance;
* :class:`ReferenceSequentialBackend` — the sequential backend with that
  walk, the ``Polygon``-based pair gather (:func:`gather_pair_polygons`,
  over :class:`~tests.reference_resolution.ReferenceSubtreeWindow`), and
  pending ``Polygon`` vias resolved by a per-parent recursive descent;
* :class:`ShapeDescentBackend` — the sequential backend with the via
  descent as it ran before the rectangle column: every pending via a
  :data:`~repro.checks.base.Shape` (its MBR ``Rect`` when it is a rectangle),
  placed per placement through ``placed_shapes``, windows inflated as
  ``Rect`` and every candidate set judged by ``procedures.satisfied``.

Both gather ``Polygon`` objects through
:class:`~tests.reference_resolution.ReferenceSubtreeWindow`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.klayout_like import _intra_flat
from repro.checks.base import Shape, Violation, check_pairs, ring_shape, shape_mbr
from repro.checks.coloring import check_two_colorable
from repro.core.sequential import SequentialBackend
from repro.geometry import IDENTITY, Polygon, Rect, Transform, union_all
from repro.geometry.transform import Row, invert_row, rigid_row, row_rect, row_transform
from repro.hierarchy.pruning import LevelItem, PruningStats, distance_invariant
from repro.hierarchy.query import invert
from repro.hierarchy.tree import HierarchyTree
from repro.layout.cell import Cell, RingBuffer
from repro.layout.flatten import flatten_layer
from repro.spatial.sweepline import iter_bipartite_overlaps
from repro.util.profile import PHASE_EDGE_CHECKS, PHASE_SWEEPLINE, PhaseProfile
from repro.violation_table import violation_row


def iter_instances(
    tree: HierarchyTree, *, layer: Optional[int] = None
) -> Iterator[Tuple[Cell, Transform]]:
    """All cell instances under the top, with accumulated transforms; with
    ``layer`` given, subtrees without that layer are pruned."""

    def visit(cell: Cell, transform: Transform) -> Iterator[Tuple[Cell, Transform]]:
        yield cell, transform
        for ref in cell.references:
            if layer is not None and not tree.has_layer(ref.cell_name, layer):
                continue
            child = tree.layout.cell(ref.cell_name)
            for placement in ref.placements():
                yield from visit(child, transform.compose(placement))

    if layer is not None and not tree.has_layer(tree.top.name, layer):
        return iter(())
    return visit(tree.top, Transform())


class ReferenceIntraScheduler:
    """The per-instance intra walk: ``check(cell)`` returns the cell's local
    violations, memoised per definition and transformed per instance."""

    def __init__(self, tree: HierarchyTree) -> None:
        self.tree = tree
        self.stats = PruningStats()

    def run(
        self,
        layer: int,
        check: Callable[[Cell], List[Violation]],
        *,
        invariance=distance_invariant,
    ) -> List[Violation]:
        memo: Dict[str, List[Violation]] = {}
        out: List[Violation] = []
        for cell, transform in iter_instances(self.tree, layer=layer):
            if not cell.rings(layer):
                continue
            if invariance(transform):
                cached = memo.get(cell.name)
                if cached is None:
                    self.stats.checks_run += 1
                    cached = memo[cell.name] = check(cell)
                else:
                    self.stats.checks_reused += 1
                out.extend(violation.transformed(transform) for violation in cached)
            else:
                self.stats.checks_refreshed += 1
                placed = Cell(cell.name)
                for polygon in cell.polygons(layer):
                    placed.add_polygon(layer, polygon.transformed(transform))
                out.extend(check(placed))
        return out


def reference_window(tree: HierarchyTree):
    """The compose-then-test ``Polygon`` gather over ``tree``."""
    from .reference_resolution import ReferenceSubtreeWindow  # which imports this module

    return ReferenceSubtreeWindow(tree)


def gather_pair_polygons(
    rings: Optional[RingBuffer],
    item_a: LevelItem,
    item_b: LevelItem,
    subtree,
    layer: int,
    rule_distance: int,
) -> Tuple[List[Polygon], List[Polygon]]:
    """The polygons of two level items near their interface, in the level's
    frame: those meeting the intersection of the two items' MBRs, each grown
    by ``rule_distance``."""
    window = item_a.mbr.inflated(rule_distance).intersection(
        item_b.mbr.inflated(rule_distance)
    )
    if window.is_empty:
        return [], []

    def polygons_of(item: LevelItem) -> List[Polygon]:
        if item.index is not None:
            return [rings.polygon(item.index)] if item.mbr.overlaps(window) else []
        return subtree.polygons_in_window(item.cell_name, item.placement, layer, window)

    return polygons_of(item_a), polygons_of(item_b)


class ReferenceSequentialBackend(SequentialBackend):
    """The sequential backend on ``Polygon`` objects and per-instance walks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.subtree = reference_window(self.tree)

    def _intra(self, rule, spec, profile: PhaseProfile) -> List[Violation]:
        layers = [rule.layer] if rule.layer is not None else self.layout.layers()
        scheduler = ReferenceIntraScheduler(self.tree)
        _, invariance = spec.intra(rule)
        out: List[Violation] = []
        for layer in layers:
            out.extend(
                scheduler.run(
                    layer,
                    lambda cell, _layer=layer: _intra_flat(rule, cell.polygons(_layer), _layer),
                    invariance=invariance,
                )
            )
        self._merge_stats(scheduler.stats)
        return out

    def _pair_check(self, rings, item_a, item_b, layer, value, procedures, profile):
        key = None
        if (
            item_a.cell_name is not None
            and item_b.cell_name is not None
            and item_a.placement.preserves_distances
            and item_b.placement.preserves_distances
        ):
            inverse_a = invert(item_a.placement)
            key = (item_a.cell_name, item_b.cell_name, inverse_a.compose(item_b.placement))
            cached = self._pair_memo.get(key)
            if cached is not None:
                self.pruning.checks_reused += 1
                return [violation_row(v.transformed(item_a.placement)) for v in cached]
        side_a, side_b = gather_pair_polygons(rings, item_a, item_b, self.subtree, layer, value)
        found: List[Violation] = []
        inflated_a = [p.mbr.inflated(value) for p in side_a]
        for i, j in iter_bipartite_overlaps(inflated_a, [p.mbr for p in side_b]):
            found.extend(
                procedures.cross_violations(
                    procedures.prepare(side_a[i].vertices),
                    procedures.prepare(side_b[j].vertices),
                    layer,
                    value,
                )
            )
        if key is not None:
            self._pair_memo[key] = [v.transformed(inverse_a) for v in found]
        # The backend it plugs into passes violation rows up the hierarchy.
        return list(map(violation_row, found))

    def _flat_subtree_pairs(self, cell_name, placement, layer, value, procedures, profile):
        window = placement.apply_rect(self.tree.layer_mbr(cell_name, layer))
        polygons = self.subtree.polygons_in_window(cell_name, placement, layer, window)
        rings = [(p.vertices, p.mbr) for p in polygons]
        return list(map(violation_row, check_pairs(procedures, rings, layer, value)))

    def _coloring(self, layer, value, profile):
        polygons = flatten_layer(self.layout, layer, top=self.tree.top.name)
        polygons.sort(key=lambda p: (p.mbr, p.canonical_vertices()))
        return check_two_colorable([(p.vertices, p.mbr) for p in polygons], layer, value)

    def _cross_layer(self, via_layer, metal_layer, value, procedures, profile):
        memo: Dict[str, List[Polygon]] = {}

        def pending(cell_name: str) -> List[Polygon]:
            cached = memo.get(cell_name)
            if cached is not None:
                self.pruning.checks_reused += 1
                return cached
            self.pruning.checks_run += 1
            cell = self.layout.cell(cell_name)
            candidates: List[Polygon] = list(cell.polygons(via_layer))
            for ref in cell.references:
                if not self.tree.has_layer(ref.cell_name, via_layer):
                    continue
                placements = list(ref.placements())
                if all(p.preserves_distances for p in placements):
                    child_pending = pending(ref.cell_name)
                else:
                    self.pruning.checks_refreshed += 1
                    window = self.tree.layer_mbr(ref.cell_name, via_layer)
                    child_pending = self.subtree.polygons_in_window(
                        ref.cell_name, IDENTITY, via_layer, window
                    )
                for placement in placements:
                    candidates.extend(p.transformed(placement) for p in child_pending)
            unresolved = self._resolve_vias(
                cell_name, candidates, metal_layer, value, procedures, profile
            )
            memo[cell_name] = unresolved
            return unresolved

        top = self.tree.top.name
        vios: List[Violation] = []
        for via in pending(top):
            metals = self.subtree.polygons_in_window(
                top, IDENTITY, metal_layer, via.mbr.inflated(value)
            )
            vios.extend(procedures.violations(via, metals, via_layer, metal_layer, value))
        return vios

    def _resolve_vias(self, cell_name, vias, metal_layer, value, procedures, profile):
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
        """One step per parent: the vias paired with rigid child instances are
        mapped into the child's frame and recursed into, batched per child
        definition of *this* parent."""
        entries = [entry for entry in entries if not satisfied[entry[0]]]
        if not entries:
            return
        cell = self.layout.cell(cell_name)
        with profile.phase(PHASE_SWEEPLINE):
            rings = cell.rings(metal_layer)
            items = self._level_items(cell, metal_layer)
            windows = [via.mbr.inflated(value) for _, via in entries]
            candidates: Dict[int, List[Polygon]] = {}
            of_child: Dict[int, List[int]] = {}
            for e, j in iter_bipartite_overlaps(windows, [it.mbr for it in items]):
                if items[j].index is not None:
                    candidates.setdefault(e, []).append(rings.polygon(items[j].index))
                else:
                    of_child.setdefault(j, []).append(e)
            for j, paired in of_child.items():
                if items[j].placement.preserves_distances:
                    continue
                near = [windows[e] for e in paired]
                metals = self.subtree.polygons_in_window(
                    items[j].cell_name, items[j].placement, metal_layer, union_all(near)
                )
                for k, m in iter_bipartite_overlaps(near, [metal.mbr for metal in metals]):
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
            self._descend(child_name, batch, satisfied, metal_layer, value, procedures, profile)


class ShapeDescentBackend(SequentialBackend):
    """The sequential backend with the ``Shape`` via descent, verbatim."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.subtree = reference_window(self.tree)

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
        its MBR when it is a rectangle.
        """
        memo: Dict[str, List[Shape]] = {}

        def pending(cell_name: str) -> List[Shape]:
            cached = memo.get(cell_name)
            if cached is not None:
                self.pruning.checks_reused += 1
                return cached
            self.pruning.checks_run += 1
            cell = self.layout.cell(cell_name)
            candidates_pending = _ring_shapes(cell.rings(via_layer))
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
                    candidates_pending.extend(placed_shapes(child_pending, placement))
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
            items = self._level_items(top, metal_layer)
            windows = [shape_mbr(via).inflated(value) for via in survivors]
            metals: List[List[Shape]] = [[] for _ in survivors]
            for e, j in iter_bipartite_overlaps(windows, [it.mbr for it in items]):
                item = items[j]
                if item.index is not None:
                    metals[e].append(ring_shape(rings.points(item.index), item.mbr))
                else:
                    metals[e].extend(
                        ring_shape(ring, mbr)
                        for ring, mbr in self.subtree.rings_in_window(
                            item.cell_name, item.placement, metal_layer, windows[e]
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
        Sound because satisfaction is monotone in the candidate set and
        invariant under rigid maps, and every survivor is re-judged at the
        top against all metal in its window (docs/algorithms.md §5).
        """
        entries = [entry for entry in entries if not satisfied[entry[0]]]
        if not entries:
            return
        with profile.phase(PHASE_SWEEPLINE):
            cell = self.layout.cell(cell_name)
            rings = cell.rings(metal_layer)
            items = self._level_items(cell, metal_layer)
            windows = [shape_mbr(via).inflated(value) for _, via in entries]
            candidates: Dict[int, List[Shape]] = {}
            of_child: Dict[int, List[int]] = {}
            local: Dict[int, Shape] = {}
            for e, j in iter_bipartite_overlaps(windows, [it.mbr for it in items]):
                index = items[j].index
                if index is not None:
                    metal = local.get(j)
                    if metal is None:
                        metal = local[j] = ring_shape(rings.points(index), items[j].mbr)
                    candidates.setdefault(e, []).append(metal)
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
                        batch.append((index, row_shape(via, inverse)))

    def _all_subtree_vias(self, cell_name: str, via_layer: int) -> List[Shape]:
        window = self.tree.layer_mbr(cell_name, via_layer)
        polygons = self.subtree.polygons_in_window(cell_name, IDENTITY, via_layer, window)
        return list(map(polygon_shape, polygons))


def _ring_shapes(rings: Optional[RingBuffer]) -> List[Shape]:
    """Every ring of a buffer as a shape, in its frame."""
    if not rings:
        return []
    return [ring_shape(rings.points(index), rings.mbr(index)) for index in range(len(rings))]


def polygon_shape(polygon: Polygon) -> Shape:
    """``polygon`` as a shape: its MBR when it is a rectangle."""
    return polygon.mbr if polygon.is_rectangle else polygon


def row_shape(shape: Shape, row: Row) -> Shape:
    """``shape`` through an integer rigid placement row."""
    if isinstance(shape, Rect):
        return row_rect(row, shape)
    return shape.transformed(row_transform(row))


def placed_shapes(shapes: Sequence[Shape], placement: Transform) -> List[Shape]:
    """``shapes`` through ``placement``; a rectangle stays a ``Rect``."""
    if placement.preserves_distances:
        row = rigid_row(placement)
        return [row_shape(shape, row) for shape in shapes]
    return [
        placement.apply_rect(shape) if isinstance(shape, Rect) else shape.transformed(placement)
        for shape in shapes
    ]

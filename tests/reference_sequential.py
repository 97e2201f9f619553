"""The sequential engine's procedures before it moved onto the columnar
buffers — kept here as the reference ``tests/test_sequential_reference.py``
holds the engine to, marker for marker.

* :func:`iter_instances` — every instance under the top with its
  accumulated transform (the walk ``HierarchyTree.iter_instances`` did);
* :class:`ReferenceIntraScheduler` — the intra walk over it: one check per
  definition, every marker transformed per instance, and a ``Cell`` rebuilt
  from placed polygons for a placement that breaks the rule's invariance;
* :class:`ReferenceSequentialBackend` — the sequential backend with that
  walk, the ``Polygon``-based pair gather
  (:func:`~repro.hierarchy.pruning.gather_pair_polygons`), and pending ``Polygon`` vias
  resolved by a per-parent recursive descent.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.baselines.klayout_like import _intra_flat
from repro.checks.base import Violation
from repro.core.sequential import SequentialBackend
from repro.geometry import IDENTITY, Polygon, Transform, union_all
from repro.hierarchy.pruning import PruningStats, distance_invariant, gather_pair_polygons
from repro.hierarchy.query import invert
from repro.hierarchy.tree import HierarchyTree
from repro.layout.cell import Cell
from repro.spatial.sweepline import near_pairs
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


class ReferenceSequentialBackend(SequentialBackend):
    """The sequential backend on ``Polygon`` objects and per-instance walks."""

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
        for i, j in near_pairs(inflated_a, [p.mbr for p in side_b]):
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
            for e, j in near_pairs(windows, [it.mbr for it in items]):
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
            self._descend(child_name, batch, satisfied, metal_layer, value, procedures, profile)

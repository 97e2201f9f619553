"""Task pruning from the hierarchy tree (paper §IV-C).

Two redundancy sources let OpenDRC skip most checks:

1. **Inferable results** — isomorphic modules: a cell instantiated many times
   is checked once per *definition*, and the result is reused for every
   instance whose placement transform preserves the checked property
   (distances for width/spacing, area for area rules; all our transforms
   preserve rectilinearity).
2. **Impossible violations** — a pair check is eliminated when the two
   MBRs, inflated by the minimum rule distance, do not overlap.

:class:`IntraCheckScheduler` implements the DFS + tag-marking protocol for
intra-polygon checks. :class:`SubtreeWindow` implements the windowed subtree
geometry gathering that inter-polygon checks use at each hierarchy level.
:class:`PruningStats` counts scheduled vs reused vs eliminated work — the
numbers behind the paper's 37.6x sequential speedup over flat checking.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..checks.base import Violation
from ..geometry import Polygon, Rect, Transform
from ..layout.cell import Cell
from .query import pull_back_window
from .tree import HierarchyTree


@dataclasses.dataclass
class PruningStats:
    """How much work the hierarchy saved."""

    checks_run: int = 0  # actual check executions (per definition)
    checks_reused: int = 0  # instances served from the memo
    checks_refreshed: int = 0  # instances re-run (transform breaks invariant)
    pairs_considered: int = 0  # candidate pairs surviving MBR pruning
    pairs_pruned_mbr: int = 0  # pairs eliminated by inflated-MBR disjointness

    @property
    def reuse_ratio(self) -> float:
        total = self.checks_run + self.checks_reused + self.checks_refreshed
        return self.checks_reused / total if total else 0.0


#: Decides whether a memoised result stays valid under a placement transform.
TransformInvariance = Callable[[Transform], bool]


def distance_invariant(transform: Transform) -> bool:
    """Width/spacing/enclosure results survive any rigid placement (mag == 1)."""
    return transform.preserves_distances


def area_invariant(transform: Transform) -> bool:
    """Area results survive transforms that do not scale area (``m**2 == 1``)."""
    return transform.magnification == 1


def always_invariant(transform: Transform) -> bool:
    """Shape/predicate results survive every supported transform."""
    return True


class IntraCheckScheduler:
    """Runs an intra-polygon check once per cell definition, reusing per instance.

    The check callable receives a cell and must return that cell's *local*
    violations (from its own polygons only — child cells are handled by
    their own definitions). The scheduler DFSes the hierarchy, tags each
    definition on first encounter (scheduling exactly one real check), and
    instantiates the memoised result through every placement transform.
    """

    def __init__(self, tree: HierarchyTree) -> None:
        self.tree = tree
        self.stats = PruningStats()

    def run(
        self,
        layer: int,
        check: Callable[[Cell], List[Violation]],
        *,
        invariance: TransformInvariance = distance_invariant,
    ) -> List[Violation]:
        """All violations under the top cell, in top-cell coordinates."""
        memo: Dict[str, List[Violation]] = {}
        out: List[Violation] = []

        def definition_result(cell: Cell) -> List[Violation]:
            cached = memo.get(cell.name)
            if cached is None:
                self.stats.checks_run += 1
                cached = check(cell)
                memo[cell.name] = cached
            else:
                self.stats.checks_reused += 1
            return cached

        for cell, transform in self.tree.iter_instances(layer=layer):
            if not cell.rings(layer):
                continue
            if invariance(transform):
                for violation in definition_result(cell):
                    out.append(violation.transformed(transform))
            else:
                # The placement breaks the invariant (e.g. magnification for
                # a distance rule): re-run on the transformed geometry.
                self.stats.checks_refreshed += 1
                placed = Cell(cell.name)
                for polygon in cell.polygons(layer):
                    placed.add_polygon(layer, polygon.transformed(transform))
                out.extend(check(placed))
        return out


class SubtreeWindow:
    """Windowed geometry gathering for inter-polygon checks.

    At every hierarchy level, cross-boundary candidate pairs only need the
    geometry near the MBR overlap window; this helper descends one cell's
    subtree, MBR-pruning against the window, and returns polygons in the
    *parent* frame of the given placement.
    """

    def __init__(self, tree: HierarchyTree) -> None:
        self.tree = tree

    def polygons_in_window(
        self,
        cell_name: str,
        placement: Transform,
        layer: int,
        window: Rect,
    ) -> List[Polygon]:
        """Subtree polygons of ``layer`` whose placed MBR overlaps ``window``.

        ``window`` and the results are in the coordinates ``placement`` maps
        into (the parent cell frame).
        """
        return self.polygons_in_regions(cell_name, placement, layer, [window])

    def polygons_in_regions(
        self,
        cell_name: str,
        placement: Transform,
        layer: int,
        windows: List[Rect],
    ) -> List[Polygon]:
        """Subtree polygons whose placed MBR overlaps *any* of ``windows``.

        One traversal serves the whole window set, so each placed polygon
        appears at most once however many windows it straddles — the
        multi-window incremental backend depends on that (a duplicated
        polygon would spuriously violate spacing against itself).
        """
        out: List[Polygon] = []
        live = [w for w in windows if not w.is_empty]
        if live:
            self._visit(cell_name, placement, layer, live, out)
        return out

    def _visit(
        self,
        cell_name: str,
        placement: Transform,
        layer: int,
        windows: List[Rect],
        out: List[Polygon],
    ) -> None:
        subtree_mbr = placement.apply_rect(self.tree.layer_mbr(cell_name, layer))
        if subtree_mbr.is_empty or not any(
            subtree_mbr.overlaps(w) for w in windows
        ):
            return
        cell = self.tree.layout.cell(cell_name)
        local_windows = [pull_back_window(placement, w) for w in windows]
        rings = cell.rings(layer)
        if rings:
            # Filter on the MBR table; only the rings that pass become objects.
            table = iter(rings.mbrs)
            for index, (xlo, ylo, xhi, yhi) in enumerate(zip(table, table, table, table)):
                for wxlo, wylo, wxhi, wyhi in local_windows:  # none empty: closed overlap
                    if xlo <= wxhi and wxlo <= xhi and ylo <= wyhi and wylo <= yhi:
                        out.append(rings.polygon(index).transformed(placement))
                        break
        # Prune on the placed-children table, in this cell's frame, *before*
        # composing: the pulled-back windows are supersets of the exact
        # pre-images, so no child the entry test above would keep is dropped.
        for child_name, child_placement, (xlo, ylo, xhi, yhi) in self.tree.placed_children(
            cell_name, layer
        ):
            for wxlo, wylo, wxhi, wyhi in local_windows:
                if xlo <= wxhi and wxlo <= xhi and ylo <= wyhi and wylo <= yhi:
                    self._visit(
                        child_name, placement.compose(child_placement), layer, windows, out
                    )
                    break


@dataclasses.dataclass(frozen=True)
class LevelItem:
    """One sweep participant at a hierarchy level: a polygon or a child instance."""

    mbr: Rect  # *raw* MBR in the level's local frame (inflate at the use site)
    polygon: Optional[Polygon] = None  # set for local polygons
    cell_name: Optional[str] = None  # set for child instances
    placement: Optional[Transform] = None

    @property
    def is_polygon(self) -> bool:
        return self.polygon is not None


def level_items(tree: HierarchyTree, cell: Cell, layer: int) -> List[LevelItem]:
    """Sweep participants of one cell level for an intra-layer pair check."""
    items: List[LevelItem] = []
    for polygon in cell.polygons(layer):
        items.append(LevelItem(mbr=polygon.mbr, polygon=polygon))
    for child_name, placement, placed_mbr in tree.placed_children(cell.name, layer):
        items.append(LevelItem(mbr=placed_mbr, cell_name=child_name, placement=placement))
    return items


def gather_pair_polygons(
    item_a: LevelItem,
    item_b: LevelItem,
    subtree: SubtreeWindow,
    layer: int,
    rule_distance: int,
) -> Tuple[List[Polygon], List[Polygon]]:
    """Materialize the polygons of two level items near their interface.

    Any polygon of item A within ``rule_distance`` of a polygon of item B
    lies inside ``inflate(mbr_B, rule_distance)`` and (being part of A)
    inside ``inflate(mbr_A, rule_distance)``, so the intersection window of
    the two rule-distance inflations is a complete capture region for both
    sides.
    """
    window = item_a.mbr.inflated(rule_distance).intersection(
        item_b.mbr.inflated(rule_distance)
    )
    if window.is_empty:
        return [], []

    def polygons_of(item: LevelItem) -> List[Polygon]:
        if item.polygon is not None:
            return [item.polygon] if item.polygon.mbr.overlaps(window) else []
        assert item.cell_name is not None and item.placement is not None
        return subtree.polygons_in_window(item.cell_name, item.placement, layer, window)

    return polygons_of(item_a), polygons_of(item_b)

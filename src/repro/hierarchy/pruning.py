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
intra-polygon checks. :class:`SubtreeWindow` is the one subtree walk every
check procedure reads its geometry from — the pair gathers at each hierarchy
level, the windowed procedure, the magnified fallbacks: it returns placed
rings (:data:`PlacedRing`, vertices plus MBR read off the ring buffers), so
no check builds a ``Polygon`` to read geometry.
:class:`PruningStats` counts scheduled vs reused vs eliminated work — the
numbers behind the paper's 37.6x sequential speedup over flat checking.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..checks.base import PlacedRing, Violation
from ..geometry import Rect, Transform
from ..geometry.polygon import signed_area2
from ..geometry.transform import (
    Row,
    compose_rows,
    invert_row,
    rigid_row,
    row_rect,
    row_transform,
)
from ..layout.cell import Cell, RingBuffer
from ..violation_table import Row as VRow
from ..violation_table import ViolationTable, violation_row
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


#: A per-definition intra check: ``(rings, placement)`` -> the violations of
#: the buffer's rings in its own frame (``placement=None``), or placed by a
#: placement that breaks the rule's invariance.
IntraCheck = Callable[[RingBuffer, Optional[Transform]], List[Violation]]


class IntraCheckScheduler:
    """Runs an intra-polygon check once per cell definition, reusing per instance.

    The check reads one definition's local rings (child cells are handled by
    their own definitions). Every definition holding the layer is checked
    once, and only a definition with violations is walked per instance: its
    markers are mapped through all of its top-frame placements
    (:meth:`HierarchyTree.placements`) in one loop.
    """

    def __init__(self, tree: HierarchyTree) -> None:
        self.tree = tree
        self.stats = PruningStats()

    def run(
        self,
        layer: int,
        check: IntraCheck,
        *,
        invariance: TransformInvariance = distance_invariant,
    ) -> ViolationTable:
        """All violations under the top cell, in top-cell coordinates: one
        table row per marker per placement, no ``Violation`` per instance."""
        out: List[VRow] = []
        for name, (rows, magnified) in self.tree.placements(layer).items():
            rings = self.tree.layout.cell(name).rings(layer)
            if not rings:
                continue
            # Rows are rigid, so every invariance keeps them.
            kept = [t for t in magnified if invariance(t)]
            count = len(rows) // 6 + len(kept)
            if count:
                self.stats.checks_run += 1
                self.stats.checks_reused += count - 1
                found = check(rings, None)
                if found:
                    out += place_rows(list(map(violation_row, found)), rows)
                    out += (violation_row(v.transformed(t)) for t in kept for v in found)
            for t in magnified:
                if not invariance(t):
                    # e.g. a magnification under a distance rule: re-run on
                    # the placed geometry.
                    self.stats.checks_refreshed += 1
                    out += map(violation_row, check(rings, t))
        return ViolationTable.from_rows(out)


def place_rows(found: Sequence[VRow], rows: Sequence[int]) -> List[VRow]:
    """Violation rows under each rigid placement of ``rows`` (six integers
    per placement), placement-major: the pure-Python twin of
    :func:`repro.hierarchy.edgepack.place_rects`, marker by marker as
    :func:`~repro.geometry.transform.row_rect` maps a rect."""
    out: List[VRow] = []
    for k in range(0, len(rows), 6):
        a, b, c, d, dx, dy = rows[k : k + 6]
        for layer, kind, xlo, ylo, xhi, yhi, other, measured, required in found:
            x1, x2 = a * xlo + b * ylo, a * xhi + b * yhi
            y1, y2 = c * xlo + d * ylo, c * xhi + d * yhi
            if x1 > x2:
                x1, x2 = x2, x1
            if y1 > y2:
                y1, y2 = y2, y1
            out.append((layer, kind, x1 + dx, y1 + dy, x2 + dx, y2 + dy, other, measured, required))
    return out


class SubtreeWindow:
    """Windowed geometry gathering: the one walk every check procedure reads.

    At every hierarchy level, cross-boundary candidate pairs only need the
    geometry near the MBR overlap window, and a windowed check only the
    geometry near its regions; this helper descends one cell's subtree,
    MBR-pruning against a window set, and returns the rings it meets as
    placed rings (:data:`PlacedRing`) in the *parent* frame of the given
    placement, read straight off the ring buffers: no ``Polygon`` is built.
    """

    def __init__(self, tree: HierarchyTree) -> None:
        self.tree = tree

    def rings_in_window(
        self,
        cell_name: str,
        placement: Transform,
        layer: int,
        window: Rect,
        *,
        named: bool = False,
    ) -> List[PlacedRing]:
        """:meth:`rings_in_regions` of one window."""
        return self.rings_in_regions(cell_name, placement, layer, [window], named=named)

    def rings_in_regions(
        self,
        cell_name: str,
        placement: Transform,
        layer: int,
        windows: Sequence[Rect],
        *,
        named: bool = False,
    ) -> List[PlacedRing]:
        """Subtree rings of ``layer`` whose placed MBR overlaps *any* of ``windows``.

        ``windows`` and the results are in the coordinates ``placement`` maps
        into (the parent cell frame). One traversal serves the whole window
        set, so each placed ring appears at most once however many windows
        it straddles — the multi-window incremental procedure depends on
        that (a duplicated ring would spuriously violate spacing against
        itself). Rings come in walk order: a cell's own, then each child's
        in reference order.

        Under rigid placements the walk composes integer rows and maps every
        ring through its row. Below a magnification it composes
        placements as ``Transform`` objects, pulls the windows back with
        :func:`~repro.hierarchy.query.pull_back_window` (rounded outward) and
        maps points through the placement (:func:`placed_ring`). With
        ``named`` every entry carries its ring's object name third.
        """
        out: List[PlacedRing] = []
        live = [w for w in windows if not w.is_empty]
        if live:
            if placement.preserves_distances:
                placement = rigid_row(placement)
            self._walk(cell_name, placement, layer, live, named, out)
        return out

    def _walk(
        self,
        cell_name: str,
        placement: Union[Row, Transform],
        layer: int,
        windows: List[Rect],
        named: bool,
        out: List[PlacedRing],
    ) -> None:
        """One cell of the walk, ``placement`` a :data:`Row` while every
        placement on the way is rigid and a ``Transform`` below a
        magnification."""
        rigid = type(placement) is not Transform
        if rigid:
            # The exact pre-images of the windows: the row is orthogonal.
            inverse = invert_row(placement)
            local = [row_rect(inverse, w) for w in windows]
        else:
            # Supersets of the pre-images; the subtree's placed MBR keeps a
            # neighbour they admit from entering.
            subtree_mbr = placement.apply_rect(self.tree.layer_mbr(cell_name, layer))
            if subtree_mbr.is_empty or not any(subtree_mbr.overlaps(w) for w in windows):
                return
            local = [pull_back_window(placement, w) for w in windows]
        # Rings and children are tested against the windows' bounding box
        # first (one window is its own bounding box).
        (bxlo, bylo, bxhi, byhi), *others = local
        for wxlo, wylo, wxhi, wyhi in others:
            bxlo, bylo = min(bxlo, wxlo), min(bylo, wylo)
            bxhi, byhi = max(bxhi, wxhi), max(byhi, wyhi)
        rings = self.tree.layout.cell(cell_name).rings(layer)
        if rings:
            entries = iter(rings.mbrs)
            for index, mbr in enumerate(zip(entries, entries, entries, entries)):
                xlo, ylo, xhi, yhi = mbr
                if xlo > bxhi or bxlo > xhi or ylo > byhi or bylo > yhi:
                    continue
                if others:
                    for wxlo, wylo, wxhi, wyhi in local:
                        if xlo <= wxhi and wxlo <= xhi and ylo <= wyhi and wylo <= yhi:
                            break
                    else:
                        continue
                if not rigid:
                    out.append(placed_ring(rings, index, placement, named=named))
                elif named:
                    name = rings.names.get(index, "")
                    out.append((rings.points(index, placement), row_rect(placement, mbr), name))
                else:
                    out.append((rings.points(index, placement), row_rect(placement, mbr)))
        # Prune on the placed-children table, in this cell's frame, *before*
        # composing. Each child gets only the windows its placed subtree MBR
        # meets: a ring's MBR lies inside its subtree's, so the others meet
        # none of it.
        for child_name, child_placement, (xlo, ylo, xhi, yhi) in self.tree.placed_children(
            cell_name, layer
        ):
            if xlo > bxhi or bxlo > xhi or ylo > byhi or bylo > yhi:
                continue
            near = windows
            if others:
                near = [
                    window
                    for window, (wxlo, wylo, wxhi, wyhi) in zip(windows, local)
                    if xlo <= wxhi and wxlo <= xhi and ylo <= wyhi and wylo <= yhi
                ]
                if not near:
                    continue
            if not rigid:
                inner = placement.compose(child_placement)
            elif child_placement.preserves_distances:
                inner = compose_rows(placement, rigid_row(child_placement))
            else:
                inner = row_transform(placement).compose(child_placement)
            self._walk(child_name, inner, layer, near, named, out)


def placed_ring(
    rings: RingBuffer,
    index: int,
    placement: Optional[Transform] = None,
    *,
    named: bool = False,
) -> PlacedRing:
    """Ring ``index`` of a buffer as a placed ring: in the buffer's frame,
    or mapped through ``placement`` and left clockwise, as
    ``Polygon.transformed`` leaves its vertices (a magnification, or a
    mirror, reverses them back). With ``named`` its object name comes third."""
    points, mbr = rings.points(index), rings.mbr(index)
    if placement is not None:
        points = placement.apply_many(points)
        if signed_area2(points) > 0:
            points.reverse()
        mbr = placement.apply_rect(mbr)
    return (points, mbr, rings.names.get(index, "")) if named else (points, mbr)


def buffer_rings(
    rings: RingBuffer, placement: Optional[Transform] = None, *, named: bool = False
) -> List[PlacedRing]:
    """Every ring of one buffer as :func:`placed_ring` places it, in storage order."""
    return [placed_ring(rings, index, placement, named=named) for index in range(len(rings))]


class LevelItem(NamedTuple):
    """One sweep participant at a hierarchy level: a local ring or a child instance."""

    mbr: Rect  # *raw* MBR in the level's local frame (inflate at the use site)
    index: Optional[int] = None  # local rings: the index in the level's buffer
    cell_name: Optional[str] = None  # set for child instances
    placement: Optional[Transform] = None

    @property
    def is_polygon(self) -> bool:
        return self.index is not None


def level_items(tree: HierarchyTree, cell: Cell, layer: int) -> List[LevelItem]:
    """Sweep participants of one cell level for an intra-layer pair check:
    the local rings, off the MBR table, then every placed child."""
    items: List[LevelItem] = []
    rings = cell.rings(layer)
    if rings:
        table = iter(rings.mbrs)
        for index, mbr in enumerate(zip(table, table, table, table)):
            items.append(LevelItem(Rect._make(mbr), index))
    for child_name, placement, placed_mbr in tree.placed_children(cell.name, layer):
        items.append(LevelItem(placed_mbr, None, child_name, placement))
    return items


def gather_pair_rings(
    rings: Optional[RingBuffer],
    item_a: LevelItem,
    item_b: LevelItem,
    subtree: SubtreeWindow,
    layer: int,
    rule_distance: int,
) -> Tuple[List[PlacedRing], List[PlacedRing]]:
    """The rings of two level items near their interface, in the level's frame.

    ``rings`` is the level cell's buffer (the one local items index). Any
    polygon of item A within ``rule_distance`` of a polygon of item B lies
    inside ``inflate(mbr_B, rule_distance)`` and (being part of A) inside
    ``inflate(mbr_A, rule_distance)``, so the intersection window of the
    two rule-distance inflations is a complete capture region for both
    sides.
    """
    window = item_a.mbr.inflated(rule_distance).intersection(
        item_b.mbr.inflated(rule_distance)
    )
    if window.is_empty:
        return [], []

    def rings_of(item: LevelItem) -> List[PlacedRing]:
        if item.index is not None:
            return [(rings.points(item.index), item.mbr)] if item.mbr.overlaps(window) else []
        return subtree.rings_in_window(item.cell_name, item.placement, layer, window)

    return rings_of(item_a), rings_of(item_b)


"""The pending-via resolution and the subtree gather the sequential engine
used before the definition-frame descent — kept here as the reference
``tests/test_sequential_descent.py`` and ``tests/test_hierarchy_pruning.py``
hold the engine to.

Resolution pulled metal *up*: every child item a via window touched had its
subtree gathered over the union of those windows and transformed into the
resolving cell's frame. The gather composed a placement for every child
before testing its MBR.

``random_hierarchy`` builds the seeded 3-level layouts both suites run on.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.geometry import Polygon, Rect, Transform
from repro.hierarchy.pruning import SubtreeWindow
from repro.hierarchy.query import pull_back_window
from repro.layout import CellReference, Layout, Repetition
from repro.spatial.sweepline import iter_bipartite_overlaps
from repro.util.profile import PHASE_EDGE_CHECKS, PHASE_SWEEPLINE, PhaseProfile

from .reference_sequential import ReferenceSequentialBackend


class ReferenceSubtreeWindow(SubtreeWindow):
    """Compose every child placement, then test its MBR in the parent frame."""

    def _visit(
        self,
        cell_name: str,
        placement: Transform,
        layer: int,
        windows: List[Rect],
        out: List[Polygon],
    ) -> None:
        subtree_mbr = placement.apply_rect(self.tree.layer_mbr(cell_name, layer))
        if subtree_mbr.is_empty or not any(subtree_mbr.overlaps(w) for w in windows):
            return
        cell = self.tree.layout.cell(cell_name)
        local_windows = [pull_back_window(placement, w) for w in windows]
        for polygon in cell.polygons(layer):
            if any(polygon.mbr.overlaps(w) for w in local_windows):
                out.append(polygon.transformed(placement))
        for ref in cell.references:
            if self.tree.layer_mbr(ref.cell_name, layer).is_empty:
                continue
            for child_placement in ref.placements():
                composed = placement.compose(child_placement)
                self._visit(ref.cell_name, composed, layer, windows, out)


class ReferenceBackend(ReferenceSequentialBackend):
    """The ``Polygon``-based sequential backend with the union-window
    resolution and gather."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.subtree = ReferenceSubtreeWindow(self.tree)

    def _resolve_vias(
        self,
        cell_name: str,
        vias: List[Polygon],
        metal_layer: int,
        value: int,
        procedures,
        profile: PhaseProfile,
    ) -> List[Polygon]:
        if not vias:
            return []
        cell = self.layout.cell(cell_name)
        rings = cell.rings(metal_layer)
        with profile.phase(PHASE_SWEEPLINE):
            items = self.caches.level_items(cell, metal_layer)
            windows = [via.mbr.inflated(value) for via in vias]
            vias_of_item: Dict[int, List[int]] = {}
            for i, j in iter_bipartite_overlaps(windows, [it.mbr for it in items]):
                vias_of_item.setdefault(j, []).append(i)

        satisfied = [False] * len(vias)
        for j, via_indices in vias_of_item.items():
            item = items[j]
            if item.index is not None:
                metals = [rings.polygon(item.index)]
            else:
                # One descent for all vias paired with this item: gather the
                # metal overlapping the union of their windows, then assign
                # candidates per via.
                with profile.phase(PHASE_SWEEPLINE):
                    union_window = windows[via_indices[0]]
                    for i in via_indices[1:]:
                        union_window = union_window.union(windows[i])
                    metals = self.subtree.polygons_in_window(
                        item.cell_name, item.placement, metal_layer, union_window
                    )
            with profile.phase(PHASE_SWEEPLINE):
                candidates: Dict[int, List[Polygon]] = {}
                pending_windows = [windows[i] for i in via_indices]
                for vi, mi in iter_bipartite_overlaps(pending_windows, [m.mbr for m in metals]):
                    candidates.setdefault(via_indices[vi], []).append(metals[mi])
            with profile.phase(PHASE_EDGE_CHECKS):
                for via_index, cands in candidates.items():
                    if satisfied[via_index]:
                        continue
                    if procedures.satisfied(vias[via_index], cands, value):
                        satisfied[via_index] = True
        return [via for via, ok in zip(vias, satisfied) if not ok]


# -- generated hierarchies -------------------------------------------------------

VIA, METAL = 1, 2
VIA_SIDE = 10  # every via is a VIA_SIDE square; every metal is >= 30 both ways
ENCLOSURE = 5  # the enclosure rule value the planted cases are sized for
MIN_OVERLAP = 60  # of a via's 100: met by neither half of a 50/50 straddle
ORIENTATIONS = [(rotation, mirror) for rotation in (0, 90, 180, 270) for mirror in (False, True)]
#: Where the planted cases sit, clear of everything random.
PLANTED_X = -4000


def _via(x: int, y: int) -> Polygon:
    return Polygon.from_rect_coords(x, y, x + VIA_SIDE, y + VIA_SIDE)


def _metal(rng: random.Random, x: int, y: int) -> Polygon:
    """A rectangle, or an L (the rectangle less its top-right corner)."""
    w, h = rng.randint(30, 90), rng.randint(30, 90)
    if rng.random() < 0.4:
        nx, ny = rng.randint(12, w - 12), rng.randint(12, h - 12)
        return Polygon(
            [(x, y), (x, y + h), (x + nx, y + h), (x + nx, y + ny), (x + w, y + ny), (x + w, y)]
        )
    return Polygon.from_rect_coords(x, y, x + w, y + h)


def _scatter(rng: random.Random, cell, extent: int, metals: int, vias: int) -> None:
    """Metals and vias over ``[0, extent]``; a third of the vias sit inside a
    metal of this cell with a margin near the rule, the rest fall anywhere."""
    placed = []
    for _ in range(metals):
        placed.append(_metal(rng, rng.randint(0, extent), rng.randint(0, extent)))
        cell.add_polygon(METAL, placed[-1])
    for _ in range(vias):
        if placed and rng.random() < 0.34:
            box = rng.choice(placed).mbr
            margin = rng.randint(ENCLOSURE - 2, ENCLOSURE + 3)
            cell.add_polygon(VIA, _via(box.xlo + margin, box.ylo + margin))
        else:
            cell.add_polygon(VIA, _via(rng.randint(-20, extent + 60), rng.randint(-20, extent + 60)))


def _orientation(rng: random.Random, dx: int, dy: int) -> Transform:
    rotation, mirror = rng.choice(ORIENTATIONS)
    return Transform(dx, dy, rotation, mirror)


def _boundary_cluster(cell, x: int, y: int) -> None:
    """Vias at margin ``m`` for ``m`` in ``ENCLOSURE - 1, ENCLOSURE, ENCLOSURE + 1``
    (one side at ``m``, the others well clear), at ``(x, y)`` in ``cell``'s frame:

    * a square via against each side of a 40 x 40 rectangle;
    * a square via against each inner side of an L (60 x 60 less its
      30 x 30 top-right corner), and an L-shaped via against the left
      side of a rectangle;
    * a square via straddling a rectangle's right side with exactly
      ``MIN_OVERLAP`` of its area on the metal, and one across the seam of
      two abutting rectangles (50 + 50).

    Run against rules at ``ENCLOSURE + d`` / ``MIN_OVERLAP + d``, ``d`` in
    ``-1, 0, 1``, every margin lands at ``value - 1``, ``value`` and
    ``value + 1``."""
    for k, m in enumerate((ENCLOSURE - 1, ENCLOSURE, ENCLOSURE + 1)):
        bx = x + 130 * k
        cell.add_polygon(METAL, Polygon.from_rect_coords(bx, y, bx + 40, y + 40))
        far = 40 - VIA_SIDE - m
        for vx, vy in ((m, 15), (far, 15), (15, m), (15, far)):
            cell.add_polygon(VIA, _via(bx + vx, y + vy))
        lx, ly = x + 130 * k, y + 60
        cell.add_polygon(
            METAL,
            Polygon([(lx, ly), (lx, ly + 60), (lx + 30, ly + 60), (lx + 30, ly + 30),
                     (lx + 60, ly + 30), (lx + 60, ly)]),
        )
        # Right of the upper arm faces the notch; so does the top of the lower arm.
        cell.add_polygon(VIA, _via(lx + 30 - m - VIA_SIDE, ly + 40))
        cell.add_polygon(VIA, _via(lx + 40, ly + 30 - m - VIA_SIDE))
        ex, ey = x + 130 * k, y + 140
        cell.add_polygon(METAL, Polygon.from_rect_coords(ex, ey, ex + 40, ey + 40))
        cell.add_polygon(
            VIA,
            Polygon([(ex + m, ey + 14), (ex + m, ey + 26), (ex + m + 6, ey + 26),
                     (ex + m + 6, ey + 20), (ex + m + 12, ey + 20), (ex + m + 12, ey + 14)]),
        )
    ox, oy = x + 400, y
    cell.add_polygon(METAL, Polygon.from_rect_coords(ox, oy, ox + 40, oy + 40))
    cell.add_polygon(VIA, _via(ox + 40 - MIN_OVERLAP // VIA_SIDE, oy + 15))
    cell.add_polygon(METAL, Polygon.from_rect_coords(ox, oy + 60, ox + 40, oy + 100))
    cell.add_polygon(METAL, Polygon.from_rect_coords(ox + 40, oy + 60, ox + 80, oy + 100))
    cell.add_polygon(VIA, _via(ox + 35, oy + 75))


def random_hierarchy(seed, *, magnified: bool = True, edge_cases: bool = False) -> Layout:
    """top -> mids -> leaves: SREFs in all 8 orientations, an AREF at both
    levels, overlapping siblings, L-shaped metals, vias at every level, one
    magnified instance (optional) and the planted cases of ``_plant``; with
    ``edge_cases``, a ``_boundary_cluster`` (exact margins, L-shaped vias)
    in every leaf, every mid and the top, and an L-shaped via scattered in
    every leaf."""
    rng = random.Random(f"descent-{seed}")
    layout = Layout(f"descent-{seed}")
    leaves = []
    for index in range(3):
        leaf = layout.new_cell(f"leaf{index}")
        _scatter(rng, leaf, 200, metals=rng.randint(3, 5), vias=rng.randint(4, 6))
        if edge_cases:
            _boundary_cluster(leaf, 0, 240)
            x, y = rng.randint(0, 200), rng.randint(0, 200)
            leaf.add_polygon(
                VIA, Polygon([(x, y), (x, y + 12), (x + 6, y + 12), (x + 6, y + 6), (x + 12, y + 6), (x + 12, y)])
            )
        leaves.append(leaf.name)
    mids = []
    for index in range(2):
        mid = layout.new_cell(f"mid{index}")
        for slot in range(rng.randint(2, 3)):
            # A pitch below the leaf extent: neighbours overlap or abut.
            mid.add_reference(
                CellReference(rng.choice(leaves), _orientation(rng, slot * rng.randint(180, 300), 0))
            )
        mid.add_reference(
            CellReference(
                rng.choice(leaves),
                _orientation(rng, 0, 450),
                Repetition(2, 2, (rng.randint(200, 280), 0), (0, rng.randint(200, 280))),
            )
        )
        _scatter(rng, mid, 800, metals=3, vias=8)
        if edge_cases:
            _boundary_cluster(mid, 0, 900)
        mids.append(mid.name)
    top = layout.new_cell("top")
    for slot, (rotation, mirror) in enumerate(ORIENTATIONS):
        dx, dy = (slot % 4) * rng.randint(800, 1100), (slot // 4) * rng.randint(800, 1100)
        top.add_reference(CellReference(mids[slot % 2], Transform(dx, dy, rotation, mirror)))
    top.add_reference(
        CellReference(
            rng.choice(mids), _orientation(rng, 0, 3500), Repetition(2, 1, (1000, 0), (0, 1000))
        )
    )
    if magnified:
        top.add_reference(
            CellReference(rng.choice(leaves), Transform(1500, -900, *rng.choice(ORIENTATIONS), 2))
        )
        top.add_reference(
            CellReference(rng.choice(mids), Transform(5500, 500, *rng.choice(ORIENTATIONS), 2))
        )
    # Ancestor metal: plates over parts of the placed mids, and vias anywhere.
    for _ in range(6):
        x, y = rng.randint(-500, 3500), rng.randint(-500, 4500)
        top.add_polygon(METAL, Polygon.from_rect_coords(x, y, x + 400, y + 300))
    for _ in range(60):
        top.add_polygon(VIA, _via(rng.randint(-900, 4200), rng.randint(-900, 4800)))
    _plant(layout, top)
    if edge_cases:
        _boundary_cluster(top, PLANTED_X, 3000)
    layout.set_top("top")
    return layout


#: Top-frame MBRs of the planted vias, by case (see ``_plant``).
PLANTED = {
    "straddle": Rect(PLANTED_X + 95, 45, PLANTED_X + 105, 55),
    "ancestor-covered": Rect(PLANTED_X, 1000, PLANTED_X + 10, 1010),
    "ancestor-bare": Rect(PLANTED_X + 300, 1000, PLANTED_X + 310, 1010),
    "grandchild": Rect(PLANTED_X + 100, 2100, PLANTED_X + 110, 2110),
}


def _plant(layout: Layout, top) -> None:
    """The cases a random draw may miss, the same for every seed.

    * ``straddle``: a via of ``pair`` across the seam of two abutting
      ``half`` instances — enclosed by neither (an enclosure violation), and
      ``MIN_OVERLAP`` met only by the two cells' bases together (50 + 50).
    * ``ancestor-*``: ``bare`` holds a via and no metal; a top-level plate
      covers the first of its two placements only.
    * ``grandchild``: a via of ``needy`` lands on metal two levels down a
      *sibling* (``donor_mid`` -> ``donor_leaf``) and nowhere else.
    """
    half = layout.new_cell("half")
    half.add_polygon(METAL, Polygon.from_rect_coords(0, 0, 100, 100))
    pair = layout.new_cell("pair")
    pair.add_reference(CellReference("half", Transform(0, 0)))
    pair.add_reference(CellReference("half", Transform(100, 0)))
    pair.add_polygon(VIA, _via(95, 45))
    top.add_reference(CellReference("pair", Transform(PLANTED_X, 0)))

    bare = layout.new_cell("bare")
    bare.add_polygon(VIA, _via(0, 0))
    bare_mid = layout.new_cell("bare_mid")
    bare_mid.add_reference(CellReference("bare", Transform(0, 0)))
    bare_mid.add_reference(CellReference("bare", Transform(300, 0)))
    top.add_reference(CellReference("bare_mid", Transform(PLANTED_X, 1000)))
    top.add_polygon(
        METAL, Polygon.from_rect_coords(PLANTED_X - 20, 980, PLANTED_X + 40, 1040)
    )

    donor_leaf = layout.new_cell("donor_leaf")
    donor_leaf.add_polygon(METAL, Polygon.from_rect_coords(0, 0, 100, 100))
    donor_mid = layout.new_cell("donor_mid")
    donor_mid.add_reference(CellReference("donor_leaf", Transform(50, 50)))
    needy = layout.new_cell("needy")
    needy.add_polygon(VIA, _via(0, 0))
    top.add_reference(CellReference("donor_mid", Transform(PLANTED_X, 2000)))
    top.add_reference(CellReference("needy", Transform(PLANTED_X + 100, 2100)))

"""Pending vias are pushed down the hierarchy, once per definition.

The engine's definition-frame descent is held, marker for marker, to the
union-window resolution it replaced (``tests/reference_resolution.py``) and
to the flat checks on flattened layers, on generated 3-level hierarchies;
the counting tests pin what the descent must not do: gather for a via it
resolves, transform metal, or enter a definition more than once per
resolution, however many parents place it.
"""

from collections import Counter

import pytest

from repro.checks import check_enclosure, sort_violations
from repro.checks.base import as_polygon
from repro.checks.overlap import check_min_overlap
from repro.core.plan import kind_spec
from repro.core.rules import RuleKind, layer
from repro.core.sequential import SequentialBackend
from repro.geometry import Polygon, Transform
from repro.hierarchy.pruning import SubtreeWindow, level_items
from repro.hierarchy.tree import HierarchyTree
from repro.layout import CellReference, Layout
from repro.layout.cell import RingBuffer
from repro.layout.flatten import flatten_layer, polygon_rings
from repro.spatial.sweepline import iter_bipartite_overlaps
from repro.util.profile import PhaseProfile

from .reference_resolution import (
    ENCLOSURE,
    METAL,
    MIN_OVERLAP,
    PLANTED,
    VIA,
    ReferenceBackend,
    random_hierarchy,
)
from .violation_rows import as_violations

RULES = [
    layer(VIA).enclosure(layer(METAL)).greater_than(ENCLOSURE),
    layer(VIA).overlap(layer(METAL)).greater_than(MIN_OVERLAP),
]
FLAT = {RuleKind.ENCLOSURE: check_enclosure, RuleKind.MIN_OVERLAP: check_min_overlap}
SEEDS = range(8)


class Recording:
    """Cross-layer procedures that note each survivor and what the final check
    said; a via read off the ring tables as its MBR is noted as its polygon."""

    def __init__(self, kind):
        self._inner = kind_spec(kind).procedures()
        self.box_satisfied = self._inner.box_satisfied
        self.survivors, self.cleared = [], []

    def satisfied(self, via, metals, value):
        return self._inner.satisfied(via, metals, value)

    def violations(self, via, metals, via_layer, metal_layer, value):
        found = self._inner.violations(via, metals, via_layer, metal_layer, value)
        self.survivors.append(as_polygon(via))
        if not found:
            self.cleared.append(as_polygon(via))
        return found


def resolve(backend_class, layout, rule):
    procedures = Recording(rule.kind)
    rows = backend_class(layout)._cross_layer(rule, procedures, PhaseProfile())
    return as_violations(rows), procedures


def flat_violations(layout, rule):
    vias = polygon_rings(flatten_layer(layout, VIA, top="top"))
    metals = polygon_rings(flatten_layer(layout, METAL, top="top"))
    return as_violations(FLAT[rule.kind](vias, metals, VIA, METAL, rule.value))


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.kind.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_descent_matches_reference_and_flat(seed, rule):
    layout = random_hierarchy(seed)
    found, new = resolve(SequentialBackend, layout, rule)
    expected, old = resolve(ReferenceBackend, layout, rule)
    assert found  # a layout without violations would prove nothing
    assert sort_violations(found) == sort_violations(expected)
    assert sort_violations(found) == sort_violations(flat_violations(layout, rule))
    # Resolving later (or earlier) than the reference may change cost only:
    # whatever else survives is cleared by the final check.
    assert set(new.survivors) <= set(old.survivors) | set(new.cleared)


@pytest.mark.parametrize("seed", [0, 1])
def test_planted_cases_are_judged_as_built(seed):
    layout = random_hierarchy(seed)
    enclosure, overlap = (
        {v.region for v in resolve(SequentialBackend, layout, rule)[0]} for rule in RULES
    )
    # An enclosure marker is the via inflated by the rule, an overlap marker the via.
    marked = {
        case: (via.inflated(ENCLOSURE) in enclosure, via in overlap)
        for case, via in PLANTED.items()
    }
    assert marked == {
        # Straddling two siblings: enclosed by neither, overlapped by both together.
        "straddle": (True, False),
        # Ancestor metal covers one placement of the definition only.
        "ancestor-covered": (False, False),
        "ancestor-bare": (True, True),
        # Satisfied two levels down a sibling.
        "grandchild": (False, False),
    }


def test_straddle_overlap_needs_both_cells_and_survives_to_the_top():
    """``MIN_OVERLAP`` sums over one cell's own polygons per descent step, so
    the 50 + 50 straddle is resolved by no single definition: it reaches the
    final check, which sees both bases (later than the reference, not
    differently)."""
    layout = random_hierarchy(0)
    _, new = resolve(SequentialBackend, layout, RULES[1])
    _, old = resolve(ReferenceBackend, layout, RULES[1])
    straddle = [via for via in new.cleared if via.mbr == PLANTED["straddle"]]
    assert len(straddle) == 1
    assert all(via.mbr != PLANTED["straddle"] for via in old.survivors)


@pytest.mark.parametrize("seed", SEEDS)
def test_rigid_layout_gathers_for_survivors_only_and_moves_no_metal(seed, monkeypatch):
    layout = random_hierarchy(seed, magnified=False)
    gathers, gathering, moved_metal, views, entered = [], [], [], [], []
    gather, points, polygon = SubtreeWindow.rings_in_window, RingBuffer.points, RingBuffer.polygon
    resolve_vias, descend = SequentialBackend._resolve_vias, SequentialBackend._descend

    def counting_gather(self, *args):
        gathers.append(args)
        gathering.append(True)  # a gather maps what it returns; the descent must not
        try:
            return gather(self, *args)
        finally:
            gathering.pop()

    def counting_points(self, index, row=None):
        if row is not None and not gathering:
            moved_metal.append((self, index))
        return points(self, index, row)

    def counting_polygon(self, index):
        views.append(index)
        return polygon(self, index)

    def counting_resolve(self, *args):
        entered.append([])
        return resolve_vias(self, *args)

    def counting_descend(self, cell_name, *args):
        entered[-1].append(cell_name)
        return descend(self, cell_name, *args)

    monkeypatch.setattr(SubtreeWindow, "rings_in_window", counting_gather)
    monkeypatch.setattr(RingBuffer, "points", counting_points)
    monkeypatch.setattr(RingBuffer, "polygon", counting_polygon)
    monkeypatch.setattr(SequentialBackend, "_resolve_vias", counting_resolve)
    monkeypatch.setattr(SequentialBackend, "_descend", counting_descend)
    _, procedures = resolve(SequentialBackend, layout, RULES[0])
    assert procedures.survivors and gathers
    # Only the final check gathers: once per (survivor, child item near it)
    # pair of its sweep over the top's level items, and nowhere else.
    tree = HierarchyTree(layout)
    items = level_items(tree, tree.top, METAL)
    windows = [via.mbr.inflated(ENCLOSURE) for via in procedures.survivors]
    expected = Counter(
        (items[j].cell_name, items[j].placement, METAL, windows[e])
        for e, j in iter_bipartite_overlaps(windows, [item.mbr for item in items])
        if items[j].index is None
    )
    assert Counter(gathers) == expected
    assert moved_metal == [] and views == []
    # One resolution enters every definition at most once, whatever the
    # number of its parents and placements.
    for names in entered:
        assert len(names) == len(set(names))


def test_definition_placed_k_times_is_entered_once():
    layout = Layout("rows")
    cell = layout.new_cell("cell")
    cell.add_polygon(METAL, Polygon.from_rect_coords(0, 0, 60, 60))
    row = layout.new_cell("row")
    for slot in range(3):
        row.add_reference(CellReference("cell", Transform(slot * 100, 0)))
    top = layout.new_cell("top")
    for slot in range(4):
        top.add_reference(CellReference("row", Transform(0, slot * 100, 0, slot % 2 == 1)))
        for x in (0, 100, 200):  # over every placement of ``cell``
            y = slot * 100 + (-35 if slot % 2 else 25)
            top.add_polygon(VIA, Polygon.from_rect_coords(x + 25, y, x + 35, y + 10))
    layout.set_top("top")
    backend = SequentialBackend(layout)
    entered = []
    descend = backend._descend
    backend._descend = lambda cell_name, *args: (entered.append(cell_name), descend(cell_name, *args))
    assert backend.run(RULES[0]) == []
    assert entered == ["top", "row", "cell"]
    assert len(flatten_layer(layout, VIA, top="top")) == 12

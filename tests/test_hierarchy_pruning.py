import random

import pytest

from repro.checks.width import check_ring_width, check_width
from repro.geometry import IDENTITY, Polygon, Rect, Transform
from repro.geometry.polygon import canonical_ring
from repro.hierarchy import (
    HierarchyTree,
    IntraCheckScheduler,
    SubtreeWindow,
    area_invariant,
    distance_invariant,
    level_items,
)
from repro.hierarchy import pruning
from repro.hierarchy.pruning import buffer_rings
from repro.layout import CellReference, Layout, Repetition

from .reference_resolution import METAL, ORIENTATIONS, ReferenceSubtreeWindow, random_hierarchy
from .reference_sequential import iter_instances
from .violation_rows import as_violations


def many_instances_layout(n=20) -> Layout:
    layout = Layout("memo")
    leaf = layout.new_cell("leaf")
    leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 5, 100))  # 5 wide: violates 10
    top = layout.new_cell("top")
    for i in range(n):
        top.add_reference(CellReference("leaf", Transform(dx=i * 500)))
    layout.set_top("top")
    return layout


class TestIntraScheduler:
    def test_check_runs_once_per_definition(self):
        tree = HierarchyTree(many_instances_layout(20))
        scheduler = IntraCheckScheduler(tree)
        calls = []

        def check(rings, placement):
            calls.append((rings, placement))
            return check_ring_width(rings, 1, 10)

        violations = scheduler.run(1, check)
        assert calls == [(tree.layout.cell("leaf").rings(1), None)]
        assert len(violations) == 20  # one per instance
        assert scheduler.stats.checks_run == 1
        assert scheduler.stats.checks_reused == 19

    def test_violations_transformed_per_instance(self):
        tree = HierarchyTree(many_instances_layout(3))
        scheduler = IntraCheckScheduler(tree)
        violations = as_violations(
            scheduler.run(1, lambda rings, placement: check_ring_width(rings, 1, 10))
        )
        regions = sorted(v.region for v in violations)
        assert regions[0] == Rect(0, 0, 5, 100)
        assert regions[1] == Rect(500, 0, 505, 100)

    def test_magnified_instance_rechecked(self):
        layout = Layout("mag")
        leaf = layout.new_cell("leaf")
        leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 5, 100))
        top = layout.new_cell("top")
        top.add_reference(CellReference("leaf", Transform()))
        top.add_reference(CellReference("leaf", Transform(dx=1000, magnification=3)))
        layout.set_top("top")
        scheduler = IntraCheckScheduler(HierarchyTree(layout))
        violations = scheduler.run(
            1,
            lambda rings, placement: check_width(buffer_rings(rings, placement), 1, 10),
            invariance=distance_invariant,
        )
        # magnified copy is 15 wide: passes; only the unit instance violates
        assert len(violations) == 1
        assert scheduler.stats.checks_refreshed == 1

    def test_invariance_predicates(self):
        assert distance_invariant(Transform(rotation=90, mirror_x=True))
        assert not distance_invariant(Transform(magnification=2))
        assert area_invariant(Transform(rotation=270))
        assert not area_invariant(Transform(magnification=2))


class TestLevelItems:
    def test_items_cover_local_and_children(self):
        layout = many_instances_layout(4)
        layout.cell("top").add_polygon(1, Polygon.from_rect_coords(-100, 0, -90, 10))
        tree = HierarchyTree(layout)
        items = level_items(tree, tree.top, 1)
        polygons = [it for it in items if it.is_polygon]
        children = [it for it in items if not it.is_polygon]
        assert len(polygons) == 1 and len(children) == 4

    def test_aref_expanded_to_placements(self):
        layout = Layout("aref")
        leaf = layout.new_cell("leaf")
        leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 5, 5))
        top = layout.new_cell("top")
        top.add_reference(
            CellReference("leaf", Transform(), Repetition(3, 2, (10, 0), (0, 10)))
        )
        layout.set_top("top")
        tree = HierarchyTree(layout)
        assert len(level_items(tree, tree.top, 1)) == 6

    def test_layerless_children_skipped(self):
        layout = Layout("skip")
        empty = layout.new_cell("empty")
        top = layout.new_cell("top")
        top.add_reference(CellReference("empty"))
        layout.set_top("top")
        tree = HierarchyTree(layout)
        assert level_items(tree, tree.top, 1) == []


class TestSubtreeWindow:
    def test_windowed_gather(self):
        layout = many_instances_layout(5)
        tree = HierarchyTree(layout)
        subtree = SubtreeWindow(tree)
        found = subtree.rings_in_window("top", Transform(), 1, Rect(400, 0, 600, 100))
        assert found == [([(500, 0), (500, 100), (505, 100), (505, 0)], Rect(500, 0, 505, 100))]

    def test_gather_respects_placement_frame(self):
        layout = many_instances_layout(2)
        tree = HierarchyTree(layout)
        subtree = SubtreeWindow(tree)
        shifted = Transform(dx=10000)
        found = subtree.rings_in_window("top", shifted, 1, Rect(10400, 0, 10600, 100))
        assert [mbr for _, mbr in found] == [Rect(10500, 0, 10505, 100)]

    def test_disjoint_window_empty(self):
        tree = HierarchyTree(many_instances_layout(3))
        subtree = SubtreeWindow(tree)
        assert subtree.rings_in_window("top", Transform(), 1, Rect(-999, -999, -900, -900)) == []

    def test_named_rings_carry_their_names(self):
        layout = many_instances_layout(2)
        layout.cell("leaf").add_polygon(1, Polygon.from_rect_coords(20, 0, 40, 40, name="pad"))
        tree = HierarchyTree(layout)
        found = SubtreeWindow(tree).rings_in_window("top", Transform(), 1, Rect(0, 0, 99, 99), named=True)
        assert [name for _, _, name in found] == ["", "pad"]

    def test_magnified_rings_are_placed_as_polygons_are(self):
        layout = Layout("mag")
        leaf = layout.new_cell("leaf")
        leaf.add_polygon(1, Polygon([(0, 0), (0, 30), (10, 30), (10, 10), (25, 10), (25, 0)]))
        top = layout.new_cell("top")
        for rotation, mirror in ORIENTATIONS:
            top.add_reference(CellReference("leaf", Transform(rotation * 10, 0, rotation, mirror, 3)))
        layout.set_top("top")
        tree = HierarchyTree(layout)
        found = SubtreeWindow(tree).rings_in_window("top", IDENTITY, 1, tree.top_mbr(1))
        polygon = leaf.polygons(1)[0]
        want = [polygon.transformed(ref.transform) for ref in top.references]
        assert [(list(ring), mbr) for ring, mbr in found] == [
            (list(p.vertices), p.mbr) for p in want
        ]


def random_window(rng, extent):
    x, y = rng.randint(extent.xlo, extent.xhi), rng.randint(extent.ylo, extent.yhi)
    return Rect(x, y, x + rng.choice([0, 15, 120, 900]), y + rng.choice([0, 15, 120, 900]))


def random_queries(rng, tree, count):
    """(cell, placement into the query frame, windows in that frame): the
    top as placed, and mids under every orientation, some magnified."""
    for _ in range(count):
        cell_name = rng.choice(["top", "top", "mid0", "mid1"])
        placement = IDENTITY
        if cell_name != "top":
            rotation, mirror = rng.choice(ORIENTATIONS)
            placement = Transform(
                rng.randint(-500, 500), rng.randint(-500, 500), rotation, mirror, rng.choice([1, 1, 2])
            )
        extent = placement.apply_rect(tree.layer_mbr(cell_name, METAL))
        windows = [random_window(rng, extent) for _ in range(rng.randint(1, 4))]
        yield cell_name, placement, windows


def as_rings(polygons):
    """Polygons as (canonical vertices, MBR), the way rings are compared."""
    return [(p.canonical_vertices(), p.mbr) for p in polygons]


def canonical(rings):
    return [(canonical_ring(ring), mbr) for ring, mbr in rings]


class TestGatherMatchesReference:
    """The ring walk returns the rings the compose-then-test ``Polygon``
    gather did, in the same order, rigid and magnified placements alike."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_rings_in_the_same_order(self, seed):
        tree = HierarchyTree(random_hierarchy(seed))
        walk, reference = SubtreeWindow(tree), ReferenceSubtreeWindow(tree)
        rng = random.Random(f"gather-{seed}")
        found = magnified = 0
        for cell_name, placement, windows in random_queries(rng, tree, 120):
            got = walk.rings_in_regions(cell_name, placement, METAL, windows)
            want = reference.polygons_in_regions(cell_name, placement, METAL, windows)
            assert canonical(got) == as_rings(want)
            named = walk.rings_in_regions(cell_name, placement, METAL, windows, named=True)
            assert [name for _, _, name in named] == [p.name for p in want]
            found += len(got)
            magnified += len(got) * (not placement.preserves_distances)
            # One window asked three times over is one window: a ring
            # straddling several windows is still reported once.
            assert walk.rings_in_regions(
                cell_name, placement, METAL, [windows[0]] * 3
            ) == walk.rings_in_window(cell_name, placement, METAL, windows[0])
        assert found > 100 and magnified > 10

    def test_ring_straddling_two_windows_reported_once(self):
        tree = HierarchyTree(random_hierarchy(0))
        subtree = SubtreeWindow(tree)
        plate = tree.top.rings(METAL).mbr(0)  # a 400 x 300 top-level plate
        halves = [
            Rect(plate.xlo, plate.ylo, plate.xlo + 10, plate.yhi),
            Rect(plate.xhi - 10, plate.ylo, plate.xhi, plate.yhi),
        ]
        found = subtree.rings_in_regions("top", IDENTITY, METAL, halves)
        assert [mbr for _, mbr in found].count(plate) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_composes_only_children_that_meet_a_window(self, seed, monkeypatch):
        tree = HierarchyTree(random_hierarchy(seed, magnified=False))
        subtree = SubtreeWindow(tree)
        rng = random.Random(f"compose-{seed}")
        compose = Transform.compose
        compose_rows = pruning.compose_rows
        for cell_name, placement, windows in random_queries(rng, tree, 40):
            if not placement.preserves_distances:
                continue  # outward-rounded pull-backs may admit a neighbour more

            def meeting(name, into_frame):
                """Child subtrees, at any depth, whose placed MBR meets a window."""
                total = 0
                for child, child_placement, _ in tree.placed_children(name, METAL):
                    composed = compose(into_frame, child_placement)
                    placed = composed.apply_rect(tree.layer_mbr(child, METAL))
                    if any(placed.overlaps(w) for w in windows):
                        total += 1 + meeting(child, composed)
                return total

            bound = meeting(cell_name, placement)
            calls = []
            monkeypatch.setattr(
                pruning, "compose_rows", lambda *rows: (calls.append(1), compose_rows(*rows))[1]
            )
            subtree.rings_in_regions(cell_name, placement, METAL, windows)
            monkeypatch.setattr(pruning, "compose_rows", compose_rows)
            assert len(calls) <= bound
            whole = sum(1 for _ in iter_instances(tree, layer=METAL)) - 1
            assert bound < whole  # the windows are small: most subtrees stay uncomposed

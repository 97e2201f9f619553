import random

import pytest

from repro.checks import check_polygon_width
from repro.geometry import IDENTITY, Polygon, Rect, Transform
from repro.hierarchy import (
    HierarchyTree,
    IntraCheckScheduler,
    SubtreeWindow,
    area_invariant,
    distance_invariant,
    level_items,
)
from repro.layout import CellReference, Layout, Repetition

from .reference_resolution import METAL, ORIENTATIONS, ReferenceSubtreeWindow, random_hierarchy


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

        def check(cell):
            calls.append(cell.name)
            return check_polygon_width(cell.polygons(1)[0], 1, 10)

        violations = scheduler.run(1, check)
        assert calls == ["leaf"]
        assert len(violations) == 20  # one per instance
        assert scheduler.stats.checks_run == 1
        assert scheduler.stats.checks_reused == 19

    def test_violations_transformed_per_instance(self):
        tree = HierarchyTree(many_instances_layout(3))
        scheduler = IntraCheckScheduler(tree)
        violations = scheduler.run(
            1, lambda cell: check_polygon_width(cell.polygons(1)[0], 1, 10)
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
            lambda cell: check_polygon_width(cell.polygons(1)[0], 1, 10),
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
        found = subtree.polygons_in_window(
            "top", Transform(), 1, Rect(400, 0, 600, 100)
        )
        assert len(found) == 1
        assert found[0].mbr == Rect(500, 0, 505, 100)

    def test_gather_respects_placement_frame(self):
        layout = many_instances_layout(2)
        tree = HierarchyTree(layout)
        subtree = SubtreeWindow(tree)
        shifted = Transform(dx=10000)
        found = subtree.polygons_in_window(
            "top", shifted, 1, Rect(10400, 0, 10600, 100)
        )
        assert len(found) == 1
        assert found[0].mbr == Rect(10500, 0, 10505, 100)

    def test_disjoint_window_empty(self):
        tree = HierarchyTree(many_instances_layout(3))
        subtree = SubtreeWindow(tree)
        assert subtree.polygons_in_window("top", Transform(), 1, Rect(-999, -999, -900, -900)) == []


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


class TestGatherMatchesReference:
    """The pre-compose prune returns the list the compose-then-test gather did."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_polygons_in_the_same_order(self, seed):
        tree = HierarchyTree(random_hierarchy(seed))
        pruned, reference = SubtreeWindow(tree), ReferenceSubtreeWindow(tree)
        rng = random.Random(f"gather-{seed}")
        found = 0
        for cell_name, placement, windows in random_queries(rng, tree, 120):
            got = pruned.polygons_in_regions(cell_name, placement, METAL, windows)
            assert got == reference.polygons_in_regions(cell_name, placement, METAL, windows)
            found += len(got)
            # One window asked three times over is one window: a polygon
            # straddling several windows is still reported once.
            assert pruned.polygons_in_regions(
                cell_name, placement, METAL, [windows[0]] * 3
            ) == pruned.polygons_in_window(cell_name, placement, METAL, windows[0])
        assert found > 100

    def test_polygon_straddling_two_windows_reported_once(self):
        tree = HierarchyTree(random_hierarchy(0))
        subtree = SubtreeWindow(tree)
        plate = tree.top.polygons(METAL)[0].mbr  # a 400 x 300 top-level plate
        halves = [
            Rect(plate.xlo, plate.ylo, plate.xlo + 10, plate.yhi),
            Rect(plate.xhi - 10, plate.ylo, plate.xhi, plate.yhi),
        ]
        found = subtree.polygons_in_regions("top", IDENTITY, METAL, halves)
        assert [p.mbr for p in found].count(plate) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_composes_only_children_that_meet_a_window(self, seed, monkeypatch):
        tree = HierarchyTree(random_hierarchy(seed, magnified=False))
        subtree = SubtreeWindow(tree)
        rng = random.Random(f"compose-{seed}")
        compose = Transform.compose
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
                Transform, "compose", lambda self, inner: (calls.append(1), compose(self, inner))[1]
            )
            subtree.polygons_in_regions(cell_name, placement, METAL, windows)
            monkeypatch.setattr(Transform, "compose", compose)
            assert len(calls) <= bound
            whole = sum(1 for _ in tree.iter_instances(layer=METAL)) - 1
            assert bound < whole  # the windows are small: most subtrees stay uncomposed

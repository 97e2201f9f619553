from collections import Counter

import pytest

from repro.geometry import EMPTY_RECT, Polygon, Rect, Transform
from repro.geometry.transform import row_transform
from repro.hierarchy import HierarchyTree, reference_mbr
from repro.layout import CellReference, Layout, Repetition

from .reference_resolution import METAL, VIA, random_hierarchy
from .reference_sequential import iter_instances


def build_layout() -> Layout:
    layout = Layout("tree-demo")
    leaf = layout.new_cell("leaf")
    leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 10))
    leaf.add_polygon(2, Polygon.from_rect_coords(20, 0, 30, 4))
    metal_only = layout.new_cell("metal_only")
    metal_only.add_polygon(2, Polygon.from_rect_coords(0, 0, 6, 6))
    mid = layout.new_cell("mid")
    mid.add_reference(CellReference("leaf", Transform(dx=100)))
    mid.add_reference(CellReference("metal_only", Transform(dx=300)))
    top = layout.new_cell("top")
    top.add_reference(CellReference("mid", Transform(dy=50)))
    top.add_polygon(1, Polygon.from_rect_coords(-50, -50, -40, -40))
    layout.set_top("top")
    return layout


class TestLayerMbrs:
    def test_leaf_mbrs_per_layer(self):
        tree = HierarchyTree(build_layout())
        assert tree.layer_mbr("leaf", 1) == Rect(0, 0, 10, 10)
        assert tree.layer_mbr("leaf", 2) == Rect(20, 0, 30, 4)

    def test_absent_layer_is_empty(self):
        tree = HierarchyTree(build_layout())
        assert tree.layer_mbr("metal_only", 1).is_empty
        assert not tree.has_layer("metal_only", 1)

    def test_mid_accumulates_children(self):
        tree = HierarchyTree(build_layout())
        assert tree.layer_mbr("mid", 1) == Rect(100, 0, 110, 10)
        assert tree.layer_mbr("mid", 2) == Rect(120, 0, 306, 6)

    def test_top_includes_local_and_subtree(self):
        tree = HierarchyTree(build_layout())
        assert tree.top_mbr(1) == Rect(-50, -50, 110, 60)

    def test_cell_layers(self):
        tree = HierarchyTree(build_layout())
        assert tree.cell_layers("mid") == [1, 2]
        assert tree.cell_layers("metal_only") == [2]


class TestReferenceMbr:
    def test_plain_reference(self):
        ref = CellReference("x", Transform(dx=5, dy=7))
        assert reference_mbr(ref, Rect(0, 0, 10, 10)) == Rect(5, 7, 15, 17)

    def test_rotated_reference(self):
        ref = CellReference("x", Transform(rotation=90))
        assert reference_mbr(ref, Rect(0, 0, 10, 4)) == Rect(-4, 0, 0, 10)

    def test_aref_folds_grid_analytically(self):
        ref = CellReference(
            "x", Transform(), Repetition(3, 2, (100, 0), (0, 50))
        )
        assert reference_mbr(ref, Rect(0, 0, 10, 10)) == Rect(0, 0, 210, 60)

    def test_aref_matches_expanded_union(self):
        rep = Repetition(4, 3, (35, 5), (-10, 60))
        ref = CellReference("x", Transform(dx=7, dy=11, rotation=90), rep)
        child = Rect(2, 3, 20, 9)
        folded = reference_mbr(ref, child)
        from repro.geometry import union_all

        expanded = union_all(p.apply_rect(child) for p in ref.placements())
        assert folded == expanded

    def test_empty_child(self):
        ref = CellReference("x", Transform(dx=5))
        assert reference_mbr(ref, EMPTY_RECT).is_empty


class TestInstances:
    def test_placement_counts(self):
        tree = HierarchyTree(build_layout())
        table = tree.placements(1)
        assert len(table["leaf"][0]) == 6 and table["leaf"][1] == []
        assert len(table["top"][0]) == 6

    def test_placements_layer_pruning(self):
        tree = HierarchyTree(build_layout())
        assert "metal_only" not in tree.placements(1)
        assert "leaf" in tree.placements(1)
        assert "metal_only" in tree.placements(2)

    def test_accumulated_transform(self):
        tree = HierarchyTree(build_layout())
        rows, _ = tree.placements(1)["leaf"]
        assert tuple(rows) == (1, 0, 0, 1, 100, 50)

    def test_magnified_placements_stay_transforms(self):
        layout = build_layout()
        layout.cell("top").add_reference(CellReference("mid", Transform(dx=7, magnification=2)))
        tree = HierarchyTree(layout)
        rows, magnified = tree.placements(1)["leaf"]
        assert len(rows) == 6
        assert magnified == [Transform(dx=7, magnification=2).compose(Transform(dx=100))]

    @pytest.mark.parametrize("seed", range(4))
    def test_placements_equal_the_instance_walk(self, seed):
        """Rows and magnified transforms cover every instance the reference
        walk visits, all 8 orientations and AREFs included."""
        tree = HierarchyTree(random_hierarchy(seed))
        for layer in (VIA, METAL):
            want = Counter(
                (cell.name, transform)
                for cell, transform in iter_instances(tree, layer=layer)
            )
            got = Counter()
            for name, (rows, magnified) in tree.placements(layer).items():
                for k in range(0, len(rows), 6):
                    got[name, row_transform(tuple(rows[k : k + 6]))] += 1
                got.update((name, transform) for transform in magnified)
            assert got == want

    def test_top_level_items(self):
        tree = HierarchyTree(build_layout())
        items = tree.top_level_items(2)
        assert len(items) == 1
        cell_name, placement, mbr = items[0]
        assert cell_name == "mid"
        assert mbr == Rect(120, 50, 306, 56)

from repro.geometry import Polygon, Rect, Transform
from repro.hierarchy import (
    HierarchyTree,
    QueryStats,
    count_layer_range,
    layer_range_query,
)
from repro.layout import CellReference, Layout, Repetition


def grid_layout(cols=8, rows=8) -> Layout:
    """leaf cells on a sparse grid, plus a decoy layer-2-only subtree."""
    layout = Layout("grid")
    leaf = layout.new_cell("leaf")
    leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 10))
    decoy = layout.new_cell("decoy")
    decoy.add_polygon(2, Polygon.from_rect_coords(0, 0, 5, 5))
    top = layout.new_cell("top")
    top.add_reference(
        CellReference("leaf", Transform(), Repetition(cols, rows, (100, 0), (0, 100)))
    )
    top.add_reference(CellReference("decoy", Transform(dx=-500)))
    layout.set_top("top")
    return layout


class TestRangeQuery:
    def test_window_hits_expected_cells(self):
        tree = HierarchyTree(grid_layout())
        found = layer_range_query(tree, 1, Rect(0, 0, 110, 110))
        assert len(found) == 4  # grid points (0,0) (100,0) (0,100) (100,100)

    def test_results_in_top_coordinates(self):
        tree = HierarchyTree(grid_layout())
        found = layer_range_query(tree, 1, Rect(195, 295, 315, 305))
        mbrs = {p.mbr for p in found}
        assert Rect(200, 300, 210, 310) in mbrs

    def test_empty_window(self):
        from repro.geometry import EMPTY_RECT

        tree = HierarchyTree(grid_layout())
        assert layer_range_query(tree, 1, EMPTY_RECT) == []

    def test_absent_layer(self):
        tree = HierarchyTree(grid_layout())
        assert layer_range_query(tree, 99, Rect(0, 0, 10000, 10000)) == []

    def test_decoy_layer_pruned(self):
        tree = HierarchyTree(grid_layout())
        stats = QueryStats()
        count, stats = count_layer_range(tree, 1, Rect(0, 0, 10000, 10000))
        assert count == 64
        # The decoy subtree holds no layer-1 geometry: never visited.
        assert stats.cells_pruned >= 1

    def test_small_window_prunes_most_instances(self):
        tree = HierarchyTree(grid_layout())
        count, stats = count_layer_range(tree, 1, Rect(0, 0, 10, 10))
        assert count == 1
        # O(min(n, kh)): only a handful of the 64 instances visited.
        assert stats.cells_visited <= 4

    def test_disjoint_window(self):
        tree = HierarchyTree(grid_layout())
        count, stats = count_layer_range(tree, 1, Rect(5000, 5000, 6000, 6000))
        assert count == 0

    def test_rotated_instance_query(self):
        layout = Layout("rot")
        leaf = layout.new_cell("leaf")
        leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 20, 4))
        top = layout.new_cell("top")
        top.add_reference(CellReference("leaf", Transform(dx=100, dy=100, rotation=90)))
        layout.set_top("top")
        tree = HierarchyTree(layout)
        found = layer_range_query(tree, 1, Rect(90, 100, 100, 120))
        assert len(found) == 1
        assert found[0].mbr == Rect(96, 100, 100, 120)


class TestInvert:
    def test_rigid_inverse_composes_to_identity(self):
        import random

        from repro.geometry import IDENTITY
        from repro.hierarchy import invert

        rng = random.Random("invert")
        for rotation in (0, 90, 180, 270):
            for mirror in (False, True):
                for _ in range(50):
                    t = Transform(
                        rng.randint(-9000, 9000), rng.randint(-9000, 9000), rotation, mirror
                    )
                    inverse = invert(t)
                    assert all(type(v) is int for v in (inverse.dx, inverse.dy))
                    assert inverse.compose(t) == IDENTITY
                    assert t.compose(inverse) == IDENTITY

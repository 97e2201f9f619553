import pytest

from repro.errors import LayoutError
from repro.geometry import Polygon, Transform
from repro.layout import Cell, CellReference, Layout, Repetition


def two_level_layout() -> Layout:
    layout = Layout("demo")
    leaf = layout.new_cell("leaf")
    leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 10))
    mid = layout.new_cell("mid")
    mid.add_reference(CellReference("leaf", Transform(dx=0)))
    mid.add_reference(CellReference("leaf", Transform(dx=50)))
    top = layout.new_cell("top")
    top.add_reference(CellReference("mid", Transform(dy=100)))
    top.add_reference(CellReference("mid", Transform(dy=300)))
    top.add_reference(
        CellReference("leaf", Transform(), Repetition(3, 2, (20, 0), (0, 20)))
    )
    layout.set_top("top")
    return layout


class TestCell:
    def test_local_layers_sorted(self):
        cell = Cell("c")
        cell.add_polygon(5, Polygon.from_rect_coords(0, 0, 1, 1))
        cell.add_polygon(1, Polygon.from_rect_coords(0, 0, 1, 1))
        assert cell.local_layers() == [1, 5]

    def test_polygons_missing_layer_empty(self):
        assert Cell("c").polygons(9) == ()

    def test_is_leaf(self):
        cell = Cell("c")
        assert cell.is_leaf
        cell.add_reference(CellReference("other"))
        assert not cell.is_leaf

    def test_all_polygons(self):
        cell = Cell("c")
        cell.add_polygon(2, Polygon.from_rect_coords(0, 0, 1, 1))
        cell.add_polygon(1, Polygon.from_rect_coords(0, 0, 2, 2))
        assert [layer for layer, _ in cell.all_polygons()] == [1, 2]


class TestRepetition:
    def test_placement_count(self):
        ref = CellReference("x", repetition=Repetition(3, 4, (10, 0), (0, 10)))
        assert ref.placement_count == 12

    def test_placements_expand_offsets(self):
        ref = CellReference(
            "x", Transform(dx=5, dy=5), Repetition(2, 2, (10, 0), (0, 20))
        )
        origins = [(t.dx, t.dy) for t in ref.placements()]
        assert origins == [(5, 5), (15, 5), (5, 25), (15, 25)]

    def test_single_placement_without_repetition(self):
        ref = CellReference("x", Transform(dx=1, dy=2))
        assert list(ref.placements()) == [Transform(dx=1, dy=2)]

    def test_offsets_preserve_rotation(self):
        ref = CellReference(
            "x", Transform(rotation=90), Repetition(2, 1, (10, 0), (0, 0))
        )
        placements = list(ref.placements())
        assert all(p.rotation == 90 for p in placements)


class TestLayout:
    def test_duplicate_cell_rejected(self):
        layout = Layout()
        layout.new_cell("a")
        with pytest.raises(LayoutError):
            layout.new_cell("a")

    def test_unknown_cell_lookup(self):
        with pytest.raises(LayoutError):
            Layout().cell("ghost")

    def test_top_cell_inferred_unique_root(self):
        layout = two_level_layout()
        layout._top_name = None
        assert layout.top_cell().name == "top"

    def test_set_top_unknown_rejected(self):
        with pytest.raises(LayoutError):
            two_level_layout().set_top("ghost")

    def test_layers(self):
        assert two_level_layout().layers() == [1]

    def test_validate_missing_reference(self):
        layout = Layout()
        top = layout.new_cell("top")
        top.add_reference(CellReference("ghost"))
        with pytest.raises(LayoutError):
            layout.validate()

    def test_validate_cycle(self):
        layout = Layout()
        a = layout.new_cell("a")
        b = layout.new_cell("b")
        a.add_reference(CellReference("b"))
        b.add_reference(CellReference("a"))
        with pytest.raises(LayoutError):
            layout.validate()

    def test_cycle_message_names_the_trail(self):
        layout = Layout("L")
        for name, child in (("a", "b"), ("b", "c"), ("c", "a")):
            layout.new_cell(name).add_reference(CellReference(child))
        with pytest.raises(LayoutError) as raised:
            layout.validate()
        assert str(raised.value) == "reference cycle in layout 'L': a -> b -> c -> a"

    def test_undefined_reference_message(self):
        layout = Layout("L")
        layout.new_cell("top").add_reference(CellReference("ghost"))
        with pytest.raises(LayoutError) as raised:
            layout.validate()
        assert str(raised.value) == "cell 'top' references undefined cell 'ghost'"

    def test_a_tree_build_walks_the_references_once(self, monkeypatch):
        from repro.hierarchy.tree import HierarchyTree

        layout = two_level_layout()
        walks = []
        order = Layout.topological_order
        monkeypatch.setattr(
            Layout, "topological_order", lambda self: walks.append(1) or order(self)
        )
        tree = HierarchyTree(layout)
        assert walks == [1]
        assert tree.order == [cell.name for cell in order(layout)]

    def test_topological_order_children_first(self):
        order = [c.name for c in two_level_layout().topological_order()]
        assert order.index("leaf") < order.index("mid") < order.index("top")

    def test_instance_counts(self):
        counts = two_level_layout().instance_counts()
        # top once; mid twice; leaf = 2 mids * 2 + 6 from the AREF.
        assert counts["top"] == 1
        assert counts["mid"] == 2
        assert counts["leaf"] == 2 * 2 + 6

    def test_root_cells(self):
        layout = two_level_layout()
        extra = layout.new_cell("orphan")
        roots = {c.name for c in layout.root_cells()}
        assert roots == {"top", "orphan"}

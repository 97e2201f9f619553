from repro.geometry import Polygon, Transform
from repro.hierarchy.layerview import LayerView
from repro.layout import CellReference, Layout


def build_layout() -> Layout:
    layout = Layout("lv")
    m1_cell = layout.new_cell("m1_cell")
    m1_cell.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 10))
    m2_cell = layout.new_cell("m2_cell")
    m2_cell.add_polygon(2, Polygon.from_rect_coords(0, 0, 10, 10))
    both = layout.new_cell("both")
    both.add_polygon(1, Polygon.from_rect_coords(0, 0, 5, 5))
    both.add_polygon(2, Polygon.from_rect_coords(10, 0, 15, 5))
    top = layout.new_cell("top")
    for i, name in enumerate(["m1_cell", "m2_cell", "both"]):
        top.add_reference(CellReference(name, Transform(dx=100 * i)))
    layout.set_top("top")
    return layout


class TestLayerTrees:
    def test_per_layer_membership(self):
        view = LayerView(build_layout())
        assert set(view.layer_tree(1)) == {"m1_cell", "both", "top"}
        assert set(view.layer_tree(2)) == {"m2_cell", "both", "top"}

    def test_children_filtered_per_layer(self):
        view = LayerView(build_layout())
        top_node = view.layer_tree(1)["top"]
        child_names = {name for _, name in top_node.children}
        assert child_names == {"m1_cell", "both"}

    def test_absent_layer_empty(self):
        view = LayerView(build_layout())
        assert view.layer_tree(9) == {}

    def test_tree_size(self):
        view = LayerView(build_layout())
        assert view.tree_size(1) == 3

    def test_duplication_factor_bounded_by_layer_count(self):
        view = LayerView(build_layout())
        assert 1.0 <= view.duplication_factor() <= 2.0  # L = 2 layers


class TestInvertedIndex:
    def test_leaf_elements_list_definitions(self):
        view = LayerView(build_layout())
        elements = view.leaf_elements(1)
        cells = sorted(cell for cell, _ in elements)
        assert cells == ["both", "m1_cell"]

    def test_element_count(self):
        view = LayerView(build_layout())
        assert view.element_count(2) == 2
        assert view.element_count(9) == 0

    def test_layers_listing(self):
        assert LayerView(build_layout()).layers() == [1, 2]

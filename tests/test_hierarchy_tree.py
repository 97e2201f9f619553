from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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


# -- placed MBRs through integer rows ---------------------------------------------------


def apply_rect_reference_mbr(ref, child_rect):
    """A reference's placed MBR through ``Transform.apply_rect`` (``Point``
    objects), the AREF grid folded as :func:`reference_mbr` folds it."""
    base = ref.transform.apply_rect(child_rect)
    if ref.repetition is None:
        return base
    rep = ref.repetition
    corners = [
        (c * rep.column_step[0] + r * rep.row_step[0], c * rep.column_step[1] + r * rep.row_step[1])
        for c in (0, rep.columns - 1)
        for r in (0, rep.rows - 1)
    ]
    return Rect(
        base.xlo + min(x for x, _ in corners),
        base.ylo + min(y for _, y in corners),
        base.xhi + max(x for x, _ in corners),
        base.yhi + max(y for _, y in corners),
    )


@settings(max_examples=300, deadline=None)
@given(
    rotation=st.sampled_from((0, 90, 180, 270)),
    mirror=st.booleans(),
    magnification=st.sampled_from((1, 1.0, 2, 3, Fraction(1, 2))),
    origin=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    corner=st.tuples(st.integers(-500, 500), st.integers(-500, 500)),
    size=st.tuples(st.integers(0, 300), st.integers(0, 300)),
    grid=st.one_of(
        st.none(),
        st.tuples(
            st.integers(1, 4), st.integers(1, 4),
            st.tuples(st.integers(-90, 90), st.integers(-90, 90)),
            st.tuples(st.integers(-90, 90), st.integers(-90, 90)),
        ),
    ),
)  # fmt: skip
def test_placed_mbrs_through_rows_equal_those_through_points(
    rotation, mirror, magnification, origin, corner, size, grid
):
    """Over all 8 orientations, SREFs and AREFs, rigid and magnified:
    :func:`reference_mbr` and :meth:`HierarchyTree.placed_children` (rows
    for a rigid placement) give the rects ``Transform.apply_rect`` gives."""
    (x, y), (w, h) = corner, size
    child_rect = Rect(2 * x, 2 * y, 2 * (x + w), 2 * (y + h))  # on grid at magnification 1/2
    transform = Transform(origin[0], origin[1], rotation, mirror, magnification)
    repetition = Repetition(*grid) if grid else None
    ref = CellReference("child", transform, repetition)
    assert reference_mbr(ref, child_rect) == apply_rect_reference_mbr(ref, child_rect)

    if not w or not h:  # a degenerate rect is no polygon
        return
    layout = Layout("rows")
    layout.new_cell("child").add_polygon(1, Polygon.from_rect_coords(*child_rect))
    layout.new_cell("top").add_reference(ref)
    placed = HierarchyTree(layout, top="top").placed_children("top", 1)
    assert placed == [
        ("child", placement, placement.apply_rect(child_rect)) for placement in ref.placements()
    ]

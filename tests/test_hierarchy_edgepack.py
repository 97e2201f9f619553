import random

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import Polygon, Rect, Transform
from repro.gpu.kernels import pack_edges
from repro.hierarchy import HierarchyTree
from repro.hierarchy.edgepack import (
    HierarchicalEdgePacker,
    HierarchicalRectPacker,
    InstanceTable,
    place_rects,
)
from repro.layout import CellReference, Layout, Repetition
from repro.layout.flatten import flatten_layer


def edge_set(buf):
    return sorted(
        zip(buf.fixed.tolist(), buf.lo.tolist(), buf.hi.tolist(), buf.interior.tolist())
    )


def poly_groups(*bufs):
    groups = {}
    for buf in bufs:
        for f, lo, hi, i, p in zip(
            buf.fixed.tolist(), buf.lo.tolist(), buf.hi.tolist(),
            buf.interior.tolist(), buf.poly.tolist(),
        ):
            groups.setdefault(p, []).append((buf.vertical, f, lo, hi, i))
    return sorted(tuple(sorted(v)) for v in groups.values())


def random_layout(seed: int) -> Layout:
    rng = random.Random(seed)
    layout = Layout(f"rand-{seed}")
    leaf = layout.new_cell("leaf")
    leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 30))
    leaf.add_polygon(1, Polygon([(0, 40), (0, 70), (20, 70), (20, 60), (10, 60), (10, 40)]))
    mid = layout.new_cell("mid")
    for i in range(3):
        mid.add_reference(
            CellReference(
                "leaf",
                Transform(
                    dx=i * 60,
                    dy=0,
                    rotation=rng.choice([0, 90, 180, 270]),
                    mirror_x=rng.random() < 0.5,
                ),
            )
        )
    top = layout.new_cell("top")
    for i in range(4):
        top.add_reference(
            CellReference(
                "mid",
                Transform(
                    dx=i * 300,
                    dy=i * 40,
                    rotation=rng.choice([0, 90, 180, 270]),
                    mirror_x=rng.random() < 0.5,
                ),
            )
        )
    top.add_reference(
        CellReference("leaf", Transform(dx=2000), Repetition(2, 3, (50, 0), (0, 100)))
    )
    top.add_polygon(1, Polygon.from_rect_coords(-100, -100, -50, -60))
    layout.set_top("top")
    return layout


class TestEdgePackerParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_flatten_then_pack(self, seed):
        layout = random_layout(seed)
        tree = HierarchyTree(layout)
        pair = HierarchicalEdgePacker(tree, 1).buffer_of("top")
        reference = pack_edges(flatten_layer(layout, 1))
        assert edge_set(pair.vertical) == edge_set(reference["v"])
        assert edge_set(pair.horizontal) == edge_set(reference["h"])

    @pytest.mark.parametrize("seed", range(4))
    def test_polygon_grouping_preserved(self, seed):
        layout = random_layout(seed)
        tree = HierarchyTree(layout)
        pair = HierarchicalEdgePacker(tree, 1).buffer_of("top")
        flat = flatten_layer(layout, 1)
        reference = pack_edges(flat)
        assert pair.num_polygons == len(flat)
        assert poly_groups(pair.vertical, pair.horizontal) == poly_groups(
            reference["v"], reference["h"]
        )

    def test_memoised_per_definition(self):
        layout = random_layout(0)
        tree = HierarchyTree(layout)
        packer = HierarchicalEdgePacker(tree, 1)
        first = packer.buffer_of("leaf")
        assert packer.buffer_of("leaf") is first

    def test_fractional_magnification_rejected(self):
        from fractions import Fraction

        layout = random_layout(0)
        layout.cell("top").add_reference(
            CellReference("leaf", Transform(dx=9000, magnification=Fraction(1, 2)))
        )
        table = InstanceTable(HierarchyTree(layout))
        with pytest.raises(GeometryError, match="integral magnification"):
            table.edges(1)
        with pytest.raises(GeometryError, match="integral magnification"):
            table.item_mbrs(1)


def placed_once(poly: Polygon, t: Transform) -> HierarchyTree:
    layout = Layout("one")
    layout.new_cell("leaf").add_polygon(1, poly)
    layout.new_cell("top").add_reference(CellReference("leaf", t))
    layout.set_top("top")
    return HierarchyTree(layout)


class TestTransformPair:
    @pytest.mark.parametrize("rotation", [0, 90, 180, 270])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_single_polygon_all_transforms(self, rotation, mirror):
        poly = Polygon([(0, 0), (0, 30), (10, 30), (10, 10), (25, 10), (25, 0)])
        t = Transform(dx=13, dy=-7, rotation=rotation, mirror_x=mirror)
        moved = InstanceTable(placed_once(poly, t)).edges(1)
        expected = pack_edges([poly.transformed(t)])
        assert edge_set(moved.vertical) == edge_set(expected["v"])
        assert edge_set(moved.horizontal) == edge_set(expected["h"])


class TestRectPacker:
    def test_matches_flat_mbrs(self):
        layout = random_layout(1)
        tree = HierarchyTree(layout)
        buf = HierarchicalRectPacker(tree, 1).buffer_of("top")
        flat = sorted(tuple(p.mbr) for p in flatten_layer(layout, 1))
        packed = sorted(map(tuple, buf.rects.tolist()))
        assert packed == flat

    def test_all_rect_flag(self):
        layout = random_layout(2)  # contains an L-shape
        tree = HierarchyTree(layout)
        assert not HierarchicalRectPacker(tree, 1).buffer_of("top").all_rect

        rect_only = Layout("rects")
        c = rect_only.new_cell("c")
        c.add_polygon(1, Polygon.from_rect_coords(0, 0, 5, 5))
        rect_only.set_top("c")
        tree2 = HierarchyTree(rect_only)
        assert HierarchicalRectPacker(tree2, 1).buffer_of("c").all_rect

    @pytest.mark.parametrize("rotation", [0, 90, 180, 270])
    def test_transform_rects(self, rotation):
        t = Transform(dx=5, dy=9, rotation=rotation, mirror_x=True)
        rects = np.asarray([[0, 0, 10, 4], [20, 30, 22, 50]], dtype=np.int64)
        placement = np.asarray([t._matrix + (t.dx, t.dy)], dtype=np.int64)
        moved = place_rects(rects, placement)
        for row_in, row_out in zip(rects, moved):
            expected = t.apply_rect(Rect(*map(int, row_in)))
            assert tuple(map(int, row_out)) == tuple(expected)

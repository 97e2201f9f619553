import math
import random

import pytest

from repro.checks.base import ViolationKind
from repro.checks.corner import (
    check_corner_spacing,
    ring_corners,
    corner_pair_violations,
)
from repro.core import Engine
from repro.core.rules import layer
from repro.geometry import Polygon, Rect, Transform
from repro.layout import CellReference, Layout
from repro.layout.flatten import polygon_rings


def rect(x1, y1, x2, y2):
    return Polygon.from_rect_coords(x1, y1, x2, y2)


class TestConvexCorners:
    def test_rectangle_has_four(self):
        corners = ring_corners(rect(0, 0, 10, 10).vertices)
        assert len(corners) == 4
        quadrants = {(c.x, c.y): (c.qx, c.qy) for c in corners}
        assert quadrants[(0, 0)] == (-1, -1)
        assert quadrants[(10, 10)] == (1, 1)
        assert quadrants[(0, 10)] == (-1, 1)
        assert quadrants[(10, 0)] == (1, -1)

    def test_l_shape_has_five_convex(self):
        l_shape = Polygon([(0, 0), (0, 30), (10, 30), (10, 10), (25, 10), (25, 0)])
        corners = ring_corners(l_shape.vertices)
        assert len(corners) == 5  # one reflex corner excluded
        assert (10, 10) not in {(c.x, c.y) for c in corners}


class TestPairViolations:
    def test_diagonal_close_pair(self):
        a = ring_corners(rect(0, 0, 10, 10).vertices)
        b = ring_corners(rect(13, 13, 23, 23).vertices)
        violations = corner_pair_violations(a, b, 1, 10)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind is ViolationKind.CORNER
        assert v.measured == math.isqrt(9 + 9)
        assert v.region == Rect(10, 10, 13, 13)

    def test_far_pair_passes(self):
        a = ring_corners(rect(0, 0, 10, 10).vertices)
        b = ring_corners(rect(30, 30, 40, 40).vertices)
        assert corner_pair_violations(a, b, 1, 10) == []

    def test_exact_distance_passes(self):
        # Corners (10,10) and (13,14): distance 5 exactly.
        a = ring_corners(rect(0, 0, 10, 10).vertices)
        b = ring_corners(rect(13, 14, 23, 24).vertices)
        assert corner_pair_violations(a, b, 1, 5) == []
        assert len(corner_pair_violations(a, b, 1, 6)) == 1

    def test_axis_aligned_not_corner_rule(self):
        # Side-by-side rects: edge spacing's job, not the corner rule's.
        a = ring_corners(rect(0, 0, 10, 10).vertices)
        b = ring_corners(rect(13, 0, 23, 10).vertices)
        assert corner_pair_violations(a, b, 1, 50) == []

    def test_non_facing_corners_ignored(self):
        # Diagonal overlap region: corners exist within threshold but their
        # exterior quadrants point away from each other.
        a = ring_corners(rect(0, 0, 10, 10).vertices)
        b = ring_corners(rect(8, 8, 18, 18).vertices)  # overlapping shapes
        assert corner_pair_violations(a, b, 1, 6) == []


class TestFlatCheck:
    def test_mixed_population(self):
        polys = [rect(0, 0, 10, 10), rect(14, 14, 24, 24), rect(100, 100, 110, 110)]
        violations = check_corner_spacing(polygon_rings(polys), 1, 10)
        assert len(violations) == 1

    def test_dedup_not_needed_for_distinct_regions(self):
        polys = [rect(0, 0, 10, 10), rect(13, 13, 23, 23), rect(-13, -13, -3, -3)]
        violations = check_corner_spacing(polygon_rings(polys), 1, 10)
        assert len(violations) == 2


class TestEngineIntegration:
    def build(self):
        layout = Layout("corner")
        cellule = layout.new_cell("cellule")
        cellule.add_polygon(1, rect(0, 0, 10, 10))
        cellule.add_polygon(1, rect(14, 14, 24, 24))  # diagonal gap ~5.6
        top = layout.new_cell("top")
        top.add_reference(CellReference("cellule", Transform()))
        top.add_reference(CellReference("cellule", Transform(dx=500, rotation=90)))
        top.add_reference(CellReference("cellule", Transform(dx=1000, mirror_x=True)))
        layout.set_top("top")
        return layout

    def test_rule_dsl(self):
        rule = layer(1).corner_spacing().greater_than(8)
        assert rule.name == "L1.CS.8"
        assert rule.is_inter

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_found_in_every_instance(self, mode):
        layout = self.build()
        rule = layer(1).corner_spacing().greater_than(8)
        report = Engine(mode=mode).check(layout, rules=[rule])
        assert report.results[0].num_violations == 3  # one per instance

    def test_modes_agree(self):
        layout = self.build()
        rule = layer(1).corner_spacing().greater_than(8)
        rs = Engine(mode="sequential").check(layout, rules=[rule])
        rp = Engine(mode="parallel").check(layout, rules=[rule])
        assert rs.results[0].violation_set() == rp.results[0].violation_set()

    @pytest.mark.parametrize("seed", range(3))
    def test_modes_agree_random(self, seed):
        rng = random.Random(seed)
        layout = Layout("rand")
        top = layout.new_cell("top")
        for _ in range(60):
            x, y = rng.randint(0, 600), rng.randint(0, 600)
            top.add_polygon(
                1, rect(x, y, x + rng.randint(3, 40), y + rng.randint(3, 40))
            )
        layout.set_top("top")
        rule = layer(1).corner_spacing().greater_than(12)
        rs = Engine(mode="sequential").check(layout, rules=[rule])
        rp = Engine(mode="parallel").check(layout, rules=[rule])
        assert rs.results[0].violation_set() == rp.results[0].violation_set()

    def test_kernel_matches_flat_check(self):
        rng = random.Random(9)
        polys = []
        for _ in range(80):
            x, y = rng.randint(0, 800), rng.randint(0, 800)
            polys.append(rect(x, y, x + rng.randint(3, 50), y + rng.randint(3, 50)))
        host = {(v.region, v.measured) for v in check_corner_spacing(polygon_rings(polys), 1, 15)}
        from repro.gpu.kernels import kernel_corner_pairs, pack_corners

        hits = kernel_corner_pairs(pack_corners(polys), 15)
        gpu = set()
        for k in range(len(hits)):
            ax, ay, bx, by = (int(hits.ax[k]), int(hits.ay[k]),
                              int(hits.bx[k]), int(hits.by[k]))
            gpu.add(
                (Rect(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)),
                 int(hits.measured[k]))
            )
        assert gpu == host

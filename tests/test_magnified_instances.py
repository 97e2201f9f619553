"""Regression tests: magnified placements through every engine path.

A magnification breaks distance invariance (memo refresh paths) and makes
inverse window mapping fractional (outward-rounded pull-back); these tests
pin both behaviours, including the odd-offset case that once crashed the
sequential gather.
"""

import pytest

from repro.core import Engine
from repro.core.rules import layer
from repro.geometry import Polygon, Rect, Transform
from repro.hierarchy.query import pull_back_window
from repro.layout import CellReference, Layout


def build(mag_dx: int = 1) -> Layout:
    layout = Layout("mag")
    leaf = layout.new_cell("leaf")
    leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 100))
    top = layout.new_cell("top")
    top.add_reference(CellReference("leaf", Transform(dx=mag_dx, magnification=3)))
    top.add_polygon(1, Polygon.from_rect_coords(36, 0, 46, 300))
    layout.set_top("top")
    return layout


class TestPullBackWindow:
    def test_identity(self):
        window = Rect(3, 5, 9, 11)
        assert pull_back_window(Transform(), window) == window

    def test_translation(self):
        assert pull_back_window(Transform(dx=10, dy=-5), Rect(10, -5, 20, 5)) == Rect(
            0, 0, 10, 10
        )

    def test_magnification_rounds_outward(self):
        # Window [1, 10] at mag 3: exact inverse is [1/3, 10/3].
        result = pull_back_window(Transform(magnification=3), Rect(1, 1, 10, 10))
        assert result == Rect(0, 0, 4, 4)

    def test_rotation(self):
        result = pull_back_window(Transform(rotation=90), Rect(-10, 0, 0, 10))
        assert result == Rect(0, 0, 10, 10)

    @pytest.mark.parametrize("rotation", [0, 90, 180, 270])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_contains_exact_inverse_for_rigid(self, rotation, mirror):
        t = Transform(dx=7, dy=-3, rotation=rotation, mirror_x=mirror)
        window = Rect(-20, -10, 30, 40)
        from repro.hierarchy import invert

        exact = invert(t).apply_rect(window)
        assert pull_back_window(t, window) == exact


class TestMagnifiedEngine:
    @pytest.mark.parametrize("mag_dx", [0, 1, 2])
    def test_spacing_across_magnified_boundary(self, mag_dx):
        layout = build(mag_dx)
        rule = layer(1).spacing().greater_than(8)
        rs = Engine(mode="sequential").check(layout, rules=[rule])
        rp = Engine(mode="parallel").check(layout, rules=[rule])
        assert rs.results[0].violation_set() == rp.results[0].violation_set()
        # Magnified wire spans x in [dx, dx+30]; the gap to the wire at 36
        # is 6 or 5 or 4 < 8: always exactly one violation.
        assert rs.results[0].num_violations == 1

    def test_magnified_width_semantics(self):
        layout = build()
        # The magnified wire is 30 wide: passes a 20 rule that the
        # definition (10 wide) would fail.
        rule = layer(1).width().greater_than(20)
        report = Engine(mode="sequential").check(layout, rules=[rule])
        regions = {v.region for v in report.results[0].violations}
        assert Rect(36, 0, 46, 300) in regions  # the plain top wire
        assert len(regions) == 1  # magnified instance passes

    def test_refreshed_check_is_counted(self):
        """A magnified placement re-runs a distance rule on the placed
        geometry; the run's stats say so, and the reuse ratio follows."""
        layout = build()
        layout.cell("top").add_reference(CellReference("leaf", Transform(dx=500)))
        rule = layer(1).width().greater_than(20)
        stats = Engine(mode="sequential").check(layout, rules=[rule]).results[0].stats
        assert stats["checks_refreshed"] >= 1
        assert (stats["checks_run"], stats["checks_reused"]) == (2, 0)
        total = stats["checks_run"] + stats["checks_reused"] + stats["checks_refreshed"]
        assert stats["checks_reused"] / total == 0.0

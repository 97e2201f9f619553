from repro.checks.base import ViolationKind
from repro.checks.overlap import check_min_overlap, overlap_area
from repro.core import Engine
from repro.core.incremental import check_window
from repro.core.rules import layer
from repro.geometry import Polygon, Rect, Transform
from repro.layout import CellReference, Layout
from repro.layout.flatten import polygon_rings


def rect(x1, y1, x2, y2):
    return Polygon.from_rect_coords(x1, y1, x2, y2)


class TestOverlapArea:
    def test_full_containment(self):
        via = rect(10, 10, 14, 14)
        assert overlap_area(via, [rect(0, 0, 30, 30)]) == 16

    def test_partial(self):
        via = rect(0, 0, 10, 10)
        assert overlap_area(via, [rect(5, 0, 20, 10)]) == 50

    def test_two_bases_counted_once(self):
        via = rect(0, 0, 10, 10)
        # Two overlapping base shapes covering the same half.
        assert overlap_area(via, [rect(5, 0, 20, 10), rect(5, 0, 30, 10)]) == 50

    def test_disjoint_bases_accumulate(self):
        via = rect(0, 0, 10, 10)
        assert overlap_area(via, [rect(0, 0, 3, 10), rect(7, 0, 10, 10)]) == 60

    def test_no_base(self):
        assert overlap_area(rect(0, 0, 4, 4), []) == 0


class TestCheckMinOverlap:
    def test_flags_insufficient_overlap(self):
        vias = [rect(0, 0, 10, 10), rect(100, 0, 110, 10)]
        bases = [rect(8, 0, 40, 10), rect(95, 0, 140, 10)]
        violations = check_min_overlap(polygon_rings(vias), polygon_rings(bases), 2, 1, 50)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind is ViolationKind.OVERLAP
        assert v.measured == 20 and v.required == 50
        assert v.region == Rect(0, 0, 10, 10)

    def test_exact_overlap_passes(self):
        vias = [rect(0, 0, 10, 10)]
        bases = [rect(5, 0, 20, 10)]
        assert check_min_overlap(polygon_rings(vias), polygon_rings(bases), 2, 1, 50) == []

    def test_no_base_measured_zero(self):
        violations = check_min_overlap(polygon_rings([rect(0, 0, 4, 4)]), polygon_rings([]), 2, 1, 10)
        assert violations[0].measured == 0


class TestEngineIntegration:
    def build(self, shift: int) -> Layout:
        layout = Layout("ov")
        cellule = layout.new_cell("cellule")
        cellule.add_polygon(2, rect(0, 0, 10, 10))  # the via
        cellule.add_polygon(1, rect(shift, 0, shift + 40, 10))  # the metal
        top = layout.new_cell("top")
        top.add_reference(CellReference("cellule", Transform()))
        top.add_reference(CellReference("cellule", Transform(dx=1000, rotation=180)))
        layout.set_top("top")
        return layout

    def test_rule_dsl(self):
        rule = layer(2).overlap(layer(1)).greater_than(50)
        assert rule.name == "L2.on.L1.OV.50"
        assert rule.is_inter_layer

    def test_violations_per_instance(self):
        layout = self.build(shift=5)  # overlap area = 50
        rule = layer(2).overlap(layer(1)).greater_than(60)
        report = Engine(mode="sequential").check(layout, rules=[rule])
        assert report.results[0].num_violations == 2
        assert all(v.measured == 50 for v in report.results[0].violations)

    def test_satisfied(self):
        layout = self.build(shift=0)  # fully covered: overlap 100
        rule = layer(2).overlap(layer(1)).greater_than(100)
        assert Engine(mode="sequential").check(layout, rules=[rule]).passed

    def test_parallel_mode_delegates(self):
        layout = self.build(shift=5)
        rule = layer(2).overlap(layer(1)).greater_than(60)
        rs = Engine(mode="sequential").check(layout, rules=[rule])
        rp = Engine(mode="parallel").check(layout, rules=[rule])
        assert rs.results[0].violation_set() == rp.results[0].violation_set()

    def test_cross_cell_base_counts(self):
        # Via in one cell, metal provided by a sibling: pending resolution
        # must find it at the parent level.
        layout = Layout("sib")
        via_cell = layout.new_cell("via_cell")
        via_cell.add_polygon(2, rect(0, 0, 10, 10))
        metal_cell = layout.new_cell("metal_cell")
        metal_cell.add_polygon(1, rect(0, 0, 10, 10))
        top = layout.new_cell("top")
        top.add_reference(CellReference("via_cell", Transform()))
        top.add_reference(CellReference("metal_cell", Transform()))
        layout.set_top("top")
        rule = layer(2).overlap(layer(1)).greater_than(100)
        assert Engine(mode="sequential").check(layout, rules=[rule]).passed

    def test_windowed_check(self):
        layout = self.build(shift=5)
        rule = layer(2).overlap(layer(1)).greater_than(60)
        report = check_window(layout, Rect(-50, -50, 50, 50), rules=[rule])
        assert report.total_violations == 1  # only the instance in the window

from repro.checks import ViolationKind, check_area
from repro.geometry import Polygon
from repro.layout.flatten import polygon_rings

from .violation_rows import as_violations


class TestArea:
    def test_small_polygon_flagged(self):
        tiny = Polygon.from_rect_coords(0, 0, 10, 10)
        violations = as_violations(check_area(polygon_rings([tiny]), 1, 200))
        assert len(violations) == 1
        v = violations[0]
        assert v.kind is ViolationKind.AREA
        assert v.measured == 100 and v.required == 200
        assert v.region == tiny.mbr

    def test_exact_area_passes(self):
        tiny = Polygon.from_rect_coords(0, 0, 10, 10)
        assert check_area(polygon_rings([tiny]), 1, 100) == []

    def test_l_shape_uses_true_area_not_mbr(self):
        # MBR area is 750 but the polygon covers 450.
        l_shape = Polygon([(0, 0), (0, 30), (10, 30), (10, 10), (25, 10), (25, 0)])
        assert l_shape.mbr.area == 750
        violations = as_violations(check_area(polygon_rings([l_shape]), 1, 500))
        assert len(violations) == 1 and violations[0].measured == 450

    def test_collection(self):
        polys = [
            Polygon.from_rect_coords(0, 0, 5, 5),
            Polygon.from_rect_coords(0, 0, 100, 100),
        ]
        violations = as_violations(check_area(polygon_rings(polys), 3, 1000))
        assert len(violations) == 1 and violations[0].measured == 25

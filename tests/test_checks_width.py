from repro.checks import ViolationKind, check_width
from repro.geometry import Polygon, Rect
from repro.layout.flatten import polygon_rings

from .violation_rows import as_violations


class TestRectangles:
    def test_narrow_rect_flagged(self):
        wire = Polygon.from_rect_coords(0, 0, 10, 100)
        violations = as_violations(check_width(polygon_rings([wire]), 1, 12))
        assert len(violations) == 1
        v = violations[0]
        assert v.kind is ViolationKind.WIDTH
        assert v.measured == 10 and v.required == 12
        assert v.region == Rect(0, 0, 10, 100)

    def test_exact_width_passes(self):
        wire = Polygon.from_rect_coords(0, 0, 10, 100)
        assert check_width(polygon_rings([wire]), 1, 10) == []

    def test_short_rect_flagged_in_both_axes(self):
        tiny = Polygon.from_rect_coords(0, 0, 5, 7)
        violations = as_violations(check_width(polygon_rings([tiny]), 1, 10))
        measured = sorted(v.measured for v in violations)
        assert measured == [5, 7]

    def test_square_wide_enough(self):
        assert check_width(polygon_rings([Polygon.from_rect_coords(0, 0, 50, 50)]), 1, 10) == []


class TestRectilinearShapes:
    def test_l_shape_thin_arm(self):
        # Vertical arm is 8 wide, horizontal foot is 40 tall.
        l_shape = Polygon([(0, 0), (0, 100), (8, 100), (8, 40), (60, 40), (60, 0)])
        violations = as_violations(check_width(polygon_rings([l_shape]), 1, 10))
        assert len(violations) == 1
        assert violations[0].measured == 8
        assert violations[0].region == Rect(0, 40, 8, 100)

    def test_u_shape_arms(self):
        # Both arms 6 wide, base 20 tall.
        u = Polygon(
            [(0, 0), (0, 100), (6, 100), (6, 20), (30, 20), (30, 100), (36, 100), (36, 0)]
        )
        violations = as_violations(check_width(polygon_rings([u]), 1, 10))
        arm_violations = [v for v in violations if v.measured == 6]
        assert len(arm_violations) == 2

    def test_t_shape_stem(self):
        t = Polygon(
            [(20, 0), (20, 50), (0, 50), (0, 60), (50, 60), (50, 50), (28, 50), (28, 0)]
        )
        violations = as_violations(check_width(polygon_rings([t]), 1, 10))
        assert any(v.measured == 8 for v in violations)  # stem
        assert any(v.measured == 10 for v in violations) is False  # bar exactly 10

    def test_zero_gap_edges_not_width(self):
        # Facing requires strictly positive separation.
        square = Polygon.from_rect_coords(0, 0, 10, 10)
        assert check_width(polygon_rings([square]), 1, 10) == []


class TestPlacedRings:
    def test_a_ring_reads_as_its_polygon_does(self):
        l_shape = Polygon([(0, 0), (0, 100), (8, 100), (8, 40), (60, 40), (60, 0)])
        # Vertices as plain pairs, the way the subtree walk hands them out.
        ring = [tuple(vertex) for vertex in l_shape.vertices]
        assert check_width([(ring, l_shape.mbr)], 1, 10) == check_width(
            polygon_rings([l_shape]), 1, 10
        )


class TestCollection:
    def test_check_width_aggregates(self):
        polys = [
            Polygon.from_rect_coords(0, 0, 5, 100),
            Polygon.from_rect_coords(100, 0, 150, 100),
            Polygon.from_rect_coords(200, 0, 203, 100),
        ]
        violations = as_violations(check_width(polygon_rings(polys), 7, 10))
        assert sorted(v.measured for v in violations) == [3, 5]
        assert all(v.layer == 7 for v in violations)

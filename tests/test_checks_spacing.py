from repro.checks import ViolationKind
from repro.checks.spacing import SpacingProcedures, check_spacing as check_rings
from repro.geometry import Polygon, Rect
from repro.layout.flatten import polygon_rings

PROCEDURES = SpacingProcedures()


def rect(x1, y1, x2, y2):
    return Polygon.from_rect_coords(x1, y1, x2, y2)


def pair_violations(a, b, layer, value):
    """The pairwise procedure on two distinct polygons' edge rows."""
    return PROCEDURES.cross_violations(a.edge_rows(), b.edge_rows(), layer, value)


def notch_violations(polygon, layer, value):
    """The pairwise procedure on one polygon against itself."""
    return PROCEDURES.self_violations(polygon.edge_rows(), layer, value)


def check_spacing(polygons, layer, value):
    """The flat procedure over polygons handed over as placed rings."""
    return check_rings(polygon_rings(polygons), layer, value)


class TestPairSpacing:
    def test_close_pair_flagged(self):
        a = rect(0, 0, 10, 100)
        b = rect(15, 0, 25, 100)
        violations = pair_violations(a, b, 1, 8)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind is ViolationKind.SPACING
        assert v.measured == 5
        assert v.region == Rect(10, 0, 15, 100)

    def test_exact_spacing_passes(self):
        a = rect(0, 0, 10, 100)
        b = rect(15, 0, 25, 100)
        assert pair_violations(a, b, 1, 5) == []

    def test_vertical_gap(self):
        a = rect(0, 0, 100, 10)
        b = rect(0, 13, 100, 20)
        violations = pair_violations(a, b, 1, 5)
        assert len(violations) == 1
        assert violations[0].region == Rect(0, 10, 100, 13)

    def test_no_projection_overlap_no_violation(self):
        # Diagonal neighbors: corner-to-corner proximity is out of scope.
        a = rect(0, 0, 10, 10)
        b = rect(12, 12, 20, 20)
        assert pair_violations(a, b, 1, 50) == []

    def test_abutting_treated_as_connected(self):
        a = rect(0, 0, 10, 10)
        b = rect(10, 0, 20, 10)
        assert pair_violations(a, b, 1, 50) == []

    def test_partial_projection_overlap_region_clipped(self):
        a = rect(0, 0, 10, 50)
        b = rect(14, 30, 24, 90)
        violations = pair_violations(a, b, 1, 6)
        assert violations[0].region == Rect(10, 30, 14, 50)


class TestNotch:
    def test_u_notch_flagged(self):
        u = Polygon(
            [(0, 0), (0, 50), (10, 50), (10, 20), (20, 20), (20, 50), (30, 50), (30, 0)]
        )
        violations = notch_violations(u, 1, 15)
        assert len(violations) == 1
        assert violations[0].measured == 10
        assert violations[0].region == Rect(10, 20, 20, 50)

    def test_wide_notch_passes(self):
        u = Polygon(
            [(0, 0), (0, 50), (10, 50), (10, 20), (40, 20), (40, 50), (50, 50), (50, 0)]
        )
        assert notch_violations(u, 1, 15) == []

    def test_rectangle_has_no_notch(self):
        assert notch_violations(rect(0, 0, 10, 10), 1, 100) == []


class TestFlatCheck:
    def test_only_near_pairs_flagged(self):
        polys = [rect(0, 0, 10, 10), rect(15, 0, 25, 10), rect(500, 0, 510, 10)]
        violations = check_spacing(polys, 1, 8)
        assert len(violations) == 1

    def test_includes_notches(self):
        u = Polygon(
            [(0, 0), (0, 50), (10, 50), (10, 20), (20, 20), (20, 50), (30, 50), (30, 0)]
        )
        violations = check_spacing([u], 1, 15)
        assert len(violations) == 1

    def test_candidate_filter_complete_at_rule_boundary(self):
        # Gap of exactly rule-1 must still be caught by the MBR filter.
        for rule in (2, 3, 7, 18):
            a = rect(0, 0, 10, 10)
            b = rect(10 + rule - 1, 0, 30 + rule, 10)
            violations = check_spacing([a, b], 1, rule)
            assert len(violations) == 1, rule
            assert violations[0].measured == rule - 1

    def test_three_wires_two_gaps(self):
        polys = [rect(0, 0, 10, 100), rect(14, 0, 24, 100), rect(28, 0, 38, 100)]
        violations = check_spacing(polys, 1, 6)
        assert len(violations) == 2
        # Non-adjacent pair (gap 18) not flagged at threshold 6.
        assert all(v.measured == 4 for v in violations)

    def test_empty_input(self):
        assert check_spacing([], 1, 10) == []

from repro.checks import ViolationKind, check_ensures, check_rectilinear
from repro.geometry import Polygon
from repro.layout.flatten import polygon_rings


class TestRectilinear:
    def test_rectilinear_passes(self):
        assert check_rectilinear(polygon_rings([Polygon.from_rect_coords(0, 0, 5, 5)]), 1) == []

    def test_diagonal_flagged(self):
        # Built unvalidated, as a GDSII file with diagonal edges would be.
        bad = Polygon([(0, 0), (0, 10), (10, 14), (10, 0)], validate=False)
        violations = check_rectilinear(polygon_rings([bad]), 1)
        assert len(violations) == 1
        assert violations[0].kind is ViolationKind.SHAPE

    def test_collection(self):
        good = Polygon.from_rect_coords(0, 0, 5, 5)
        bad = Polygon([(10, 0), (10, 10), (20, 15), (20, 0)], validate=False)
        assert len(check_rectilinear(polygon_rings([good, bad, good]), 1)) == 1


class TestEnsures:
    def test_predicate_failures_flagged(self):
        named = Polygon.from_rect_coords(0, 0, 5, 5, name="pad")
        anonymous = Polygon.from_rect_coords(10, 0, 15, 5)
        violations = check_ensures(polygon_rings([named, anonymous], named=True), 1, lambda p: bool(p.name))
        assert len(violations) == 1
        assert violations[0].kind is ViolationKind.PREDICATE
        assert violations[0].region == anonymous.mbr

    def test_all_pass(self):
        polys = [Polygon.from_rect_coords(0, 0, 5, 5)]
        assert check_ensures(polygon_rings(polys, named=True), 1, lambda p: p.area == 25) == []

    def test_geometric_predicate(self):
        polys = [
            Polygon.from_rect_coords(0, 0, 5, 5),
            Polygon.from_rect_coords(10, 0, 40, 5),
        ]
        violations = check_ensures(polygon_rings(polys, named=True), 1, lambda p: p.mbr.width <= 10)
        assert len(violations) == 1

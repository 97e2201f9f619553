from repro.checks import (
    ViolationKind,
    check_enclosure,
    enclosure_margin,
    enclosure_pair_violations,
)
from repro.geometry import Polygon, Rect
from repro.layout.flatten import polygon_rings


def rect(x1, y1, x2, y2):
    return Polygon.from_rect_coords(x1, y1, x2, y2)


class TestEnclosureMargin:
    def test_centered_via(self):
        via = rect(10, 10, 14, 14)
        metal = rect(5, 5, 19, 19)
        assert enclosure_margin(via, metal) == 5

    def test_asymmetric_margin_takes_minimum(self):
        via = rect(6, 10, 10, 14)
        metal = rect(5, 5, 19, 19)
        assert enclosure_margin(via, metal) == 1

    def test_zero_margin(self):
        via = rect(5, 10, 9, 14)
        metal = rect(5, 5, 19, 19)
        assert enclosure_margin(via, metal) == 0

    def test_via_poking_out_not_enclosed(self):
        via = rect(0, 10, 8, 14)
        metal = rect(5, 5, 19, 19)
        assert enclosure_margin(via, metal) is None

    def test_disjoint_not_enclosed(self):
        assert enclosure_margin(rect(100, 100, 104, 104), rect(0, 0, 20, 20)) is None

    def test_via_in_notch_not_enclosed(self):
        # U-shaped metal: the via sits in the exterior notch.
        metal = Polygon(
            [(0, 0), (0, 50), (10, 50), (10, 10), (30, 10), (30, 50), (40, 50), (40, 0)]
        )
        via = rect(18, 30, 22, 34)
        assert enclosure_margin(via, metal) is None

    def test_via_in_l_arm(self):
        metal = Polygon([(0, 0), (0, 100), (20, 100), (20, 20), (80, 20), (80, 0)])
        via = rect(5, 50, 15, 60)
        assert enclosure_margin(via, metal) == 5


class TestPairViolations:
    def test_satisfied_by_one_candidate(self):
        via = rect(10, 10, 14, 14)
        good = rect(0, 0, 24, 24)
        bad = rect(9, 9, 15, 15)
        assert enclosure_pair_violations(via, [bad, good], 2, 1, 5) == []

    def test_best_margin_reported(self):
        via = rect(10, 10, 14, 14)
        tight = rect(8, 8, 16, 16)  # margin 2
        tighter = rect(9, 9, 15, 15)  # margin 1
        violations = enclosure_pair_violations(via, [tighter, tight], 2, 1, 5)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind is ViolationKind.ENCLOSURE
        assert v.measured == 2 and v.required == 5
        assert v.layer == 2 and v.other_layer == 1

    def test_unenclosed_via_measured_zero(self):
        via = rect(10, 10, 14, 14)
        violations = enclosure_pair_violations(via, [], 2, 1, 5)
        assert violations[0].measured == 0

    def test_region_is_inflated_via(self):
        via = rect(10, 10, 14, 14)
        violations = enclosure_pair_violations(via, [], 2, 1, 3)
        assert violations[0].region == Rect(7, 7, 17, 17)


class TestFlatCheck:
    def test_mixed_population(self):
        vias = [rect(10, 10, 14, 14), rect(110, 10, 114, 14), rect(210, 10, 214, 14)]
        metals = [
            rect(0, 0, 24, 24),  # margin 10: ok
            rect(108, 8, 116, 16),  # margin 2: violation
            # third via has no metal at all
        ]
        violations = check_enclosure(polygon_rings(vias), polygon_rings(metals), 2, 1, 5)
        assert len(violations) == 2
        assert sorted(v.measured for v in violations) == [0, 2]

    def test_metal_from_anywhere_counts(self):
        # Candidate pairing must find a metal that only touches the via
        # window, not just metals near other vias.
        via = rect(1000, 1000, 1004, 1004)
        metal = rect(990, 990, 1014, 1014)
        assert check_enclosure(polygon_rings([via]), polygon_rings([metal]), 2, 1, 10) == []

    def test_empty_vias(self):
        assert check_enclosure(polygon_rings([]), polygon_rings([rect(0, 0, 10, 10)]), 2, 1, 5) == []

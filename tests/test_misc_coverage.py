"""Remaining-surface coverage: small helpers across packages."""

import pytest

from repro.geometry import Polygon
from repro.workloads import asap7


class TestAsap7Helpers:
    def test_rule_values_match_constants(self):
        rule = asap7.width_rule(asap7.M1)
        assert rule.value == asap7.WIDTH_RULES[asap7.M1]
        rule = asap7.enclosure_rule(asap7.V2, asap7.M3)
        assert rule.value == asap7.ENCLOSURE_RULES[(asap7.V2, asap7.M3)]

    def test_rule_names(self):
        assert asap7.rule_name("W", asap7.M1) == "M1.W.1"
        assert asap7.rule_name("EN", asap7.V1, asap7.M1) == "V1.M1.EN.1"

    def test_layer_names_cover_all(self):
        for layer_num in asap7.METAL_LAYERS + asap7.VIA_LAYERS:
            assert layer_num in asap7.LAYER_NAMES

    def test_m3_pitch_row_separable(self):
        # The gap between M3 tracks must exceed the row-independence bound.
        gap = asap7.M3_PITCH - asap7.M3_WIDTH
        from repro.partition import margin_for_rule

        margin = margin_for_rule(asap7.SPACING_RULES[asap7.M3])
        assert gap >= 2 * margin + 1


class TestPolygonNameThroughTransform:
    def test_name_preserved(self):
        from repro.geometry import Transform

        p = Polygon.from_rect_coords(0, 0, 5, 5, name="pin")
        assert p.transformed(Transform(rotation=90)).name == "pin"
        assert p.translated(3, 3).name == "pin"


class TestEngineErrors:
    def test_unsupported_rule_kind_message(self):
        from repro.core.sequential import SequentialBackend
        from repro.layout import Layout

        layout = Layout("x")
        layout.new_cell("top")
        layout.set_top("top")
        checker = SequentialBackend(layout)

        class FakeRule:
            kind = "bogus"

        with pytest.raises(Exception):
            checker.run(FakeRule())


class TestViolationOrdering:
    def test_sort_violations_stable_keys(self):
        from repro.checks import sort_violations
        from repro.checks.base import Violation, ViolationKind
        from repro.geometry import Rect

        violations = [
            Violation(ViolationKind.WIDTH, 2, Rect(0, 0, 1, 1), 1, 5),
            Violation(ViolationKind.SPACING, 1, Rect(0, 0, 1, 1), 1, 5),
            Violation(ViolationKind.SPACING, 1, Rect(0, 0, 1, 1), 0, 5),
        ]
        ordered = sort_violations(violations)
        assert [v.layer for v in ordered] == [1, 1, 2]
        assert ordered[0].measured == 0

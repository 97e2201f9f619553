"""Metamorphic properties of the check procedures.

Violations must transform with the geometry: translating or rigidly
transforming a layout moves every marker identically and never changes
counts or measured values; scaling by k scales distances by k. These
properties hold for any input, so hypothesis drives them.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.checks import (
    check_area,
    check_spacing,
    check_width,
)
from repro.checks.corner import check_corner_spacing
from repro.layout.flatten import polygon_rings
from repro.geometry import Polygon, Transform

coords = st.integers(min_value=-400, max_value=400)
sizes = st.integers(min_value=2, max_value=60)


@st.composite
def rect_polys(draw, max_count=12):
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_count))):
        x = draw(coords)
        y = draw(coords)
        out.append(
            Polygon.from_rect_coords(x, y, x + draw(sizes), y + draw(sizes))
        )
    return out


@st.composite
def rigid_transforms(draw):
    return Transform(
        dx=draw(coords),
        dy=draw(coords),
        rotation=draw(st.sampled_from([0, 90, 180, 270])),
        mirror_x=draw(st.booleans()),
    )


SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestTransformEquivariance:
    @SETTINGS
    @given(rect_polys(), rigid_transforms(), st.integers(min_value=1, max_value=25))
    def test_spacing_markers_transform_with_geometry(self, polys, t, value):
        base = check_spacing(polygon_rings(polys), 1, value)
        moved = check_spacing(polygon_rings(p.transformed(t) for p in polys), 1, value)
        expected = {(t.apply_rect(v.region), v.measured) for v in base}
        got = {(v.region, v.measured) for v in moved}
        assert got == expected

    @SETTINGS
    @given(rect_polys(), rigid_transforms(), st.integers(min_value=1, max_value=25))
    def test_width_markers_transform_with_geometry(self, polys, t, value):
        base = check_width(polygon_rings(polys), 1, value)
        moved = check_width(polygon_rings(p.transformed(t) for p in polys), 1, value)
        expected = {(t.apply_rect(v.region), v.measured) for v in base}
        got = {(v.region, v.measured) for v in moved}
        assert got == expected

    @SETTINGS
    @given(rect_polys(max_count=8), rigid_transforms(), st.integers(min_value=2, max_value=20))
    def test_corner_count_invariant_under_rigid_transforms(self, polys, t, value):
        base = check_corner_spacing(polygon_rings(polys), 1, value)
        moved = check_corner_spacing(polygon_rings(p.transformed(t) for p in polys), 1, value)
        assert sorted(v.measured for v in base) == sorted(v.measured for v in moved)

    @SETTINGS
    @given(rect_polys(), st.integers(min_value=1, max_value=1000))
    def test_area_measured_matches_shoelace(self, polys, value):
        for violation in check_area(polygon_rings(polys), 1, value):
            assert violation.measured < value


class TestScaling:
    @SETTINGS
    @given(rect_polys(max_count=8), st.integers(min_value=1, max_value=20),
           st.sampled_from([2, 3]))
    def test_magnification_scales_spacing_measurements(self, polys, value, k):
        base = check_spacing(polygon_rings(polys), 1, value)
        scaled = check_spacing(
            polygon_rings(p.transformed(Transform(magnification=k)) for p in polys), 1, k * value
        )
        assert sorted(v.measured * k for v in base) == sorted(
            v.measured for v in scaled
        )


class TestMonotonicity:
    @SETTINGS
    @given(rect_polys(), st.integers(min_value=1, max_value=20))
    def test_larger_rule_finds_superset(self, polys, value):
        small = {(v.region, v.measured) for v in check_spacing(polygon_rings(polys), 1, value)}
        large = {(v.region, v.measured) for v in check_spacing(polygon_rings(polys), 1, value + 5)}
        assert small <= large

    @SETTINGS
    @given(rect_polys(), st.integers(min_value=1, max_value=20))
    def test_measured_always_below_rule(self, polys, value):
        for v in check_spacing(polygon_rings(polys), 1, value):
            assert 0 < v.measured < value

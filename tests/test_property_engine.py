"""Property-based engine tests: mode equivalence on random hierarchies.

The strongest engine invariant: for ANY layout, the hierarchical sequential
mode, the row-based parallel mode, and the plain flat procedures must
report identical violation sets.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.checks.spacing import check_spacing
from repro.checks.width import check_width
from repro.core import Engine
from repro.core.rules import layer
from repro.geometry import Polygon, Transform
from repro.layout import CellReference, Layout
from repro.layout.flatten import flatten_layer, polygon_rings

from .violation_rows import as_violations

LAYER = 1


@st.composite
def layouts(draw):
    """Random two-level layouts: a few leaf kinds, many placements."""
    layout = Layout("prop")
    num_leaves = draw(st.integers(min_value=1, max_value=3))
    for kind in range(num_leaves):
        leaf = layout.new_cell(f"leaf{kind}")
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            x = draw(st.integers(min_value=0, max_value=80))
            y = draw(st.integers(min_value=0, max_value=80))
            w = draw(st.integers(min_value=2, max_value=30))
            h = draw(st.integers(min_value=2, max_value=30))
            leaf.add_polygon(LAYER, Polygon.from_rect_coords(x, y, x + w, y + h))
    top = layout.new_cell("top")
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.integers(min_value=0, max_value=num_leaves - 1))
        top.add_reference(
            CellReference(
                f"leaf{kind}",
                Transform(
                    dx=draw(st.integers(min_value=-300, max_value=300)),
                    dy=draw(st.integers(min_value=-300, max_value=300)),
                    rotation=draw(st.sampled_from([0, 90, 180, 270])),
                    mirror_x=draw(st.booleans()),
                ),
            )
        )
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        x = draw(st.integers(min_value=-300, max_value=300))
        y = draw(st.integers(min_value=-300, max_value=300))
        top.add_polygon(
            LAYER,
            Polygon.from_rect_coords(
                x, y,
                x + draw(st.integers(min_value=2, max_value=40)),
                y + draw(st.integers(min_value=2, max_value=40)),
            ),
        )
    layout.set_top("top")
    return layout


COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

class TestModeEquivalence:
    @COMMON_SETTINGS
    @given(layouts(), st.integers(min_value=1, max_value=25))
    def test_spacing_seq_equals_par_equals_flat(self, layout, value):
        rule = layer(LAYER).spacing().greater_than(value)
        seq = Engine(mode="sequential").check(layout, rules=[rule])
        par = Engine(mode="parallel").check(layout, rules=[rule])
        rings = polygon_rings(flatten_layer(layout, LAYER))
        flat = frozenset(as_violations(check_spacing(rings, LAYER, value)))
        assert seq.results[0].violation_set() == par.results[0].violation_set()
        assert seq.results[0].violation_set() == flat

    @COMMON_SETTINGS
    @given(layouts(), st.integers(min_value=1, max_value=25))
    def test_width_seq_equals_par_equals_flat(self, layout, value):
        rule = layer(LAYER).width().greater_than(value)
        seq = Engine(mode="sequential").check(layout, rules=[rule])
        par = Engine(mode="parallel").check(layout, rules=[rule])
        rings = polygon_rings(flatten_layer(layout, LAYER))
        flat = frozenset(as_violations(check_width(rings, LAYER, value)))
        assert seq.results[0].violation_set() == par.results[0].violation_set()
        assert seq.results[0].violation_set() == flat

    @COMMON_SETTINGS
    @given(layouts(), st.integers(min_value=2, max_value=20))
    def test_corner_seq_equals_par(self, layout, value):
        rule = layer(LAYER).corner_spacing().greater_than(value)
        seq = Engine(mode="sequential").check(layout, rules=[rule])
        par = Engine(mode="parallel").check(layout, rules=[rule])
        assert seq.results[0].violation_set() == par.results[0].violation_set()

    @COMMON_SETTINGS
    @given(layouts())
    def test_rows_on_off_equivalent(self, layout):
        from unittest import mock

        from repro.core.parallel import ParallelBackend

        rule = layer(LAYER).spacing().greater_than(9)
        on = Engine(mode="parallel").check(layout, rules=[rule])
        with mock.patch.object(ParallelBackend, "use_rows", False):
            off = Engine(mode="parallel").check(layout, rules=[rule])
        assert on.results[0].violation_set() == off.results[0].violation_set()

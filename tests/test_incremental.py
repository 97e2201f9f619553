import pytest

from repro.core import Engine
from repro.core.incremental import check_window
from repro.geometry import EMPTY_RECT, Rect
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations


@pytest.fixture()
def dirty_design():
    layout = build_design("ibex")
    expected = inject_violations(
        layout,
        InjectionPlan(spacing=4, width=3, enclosure=2),
        layer=asap7.M2,
        via_layer=asap7.V2,
        metal_layer=asap7.M2,
        seed=13,
    )
    return layout, expected


RULES = [
    asap7.spacing_rule(asap7.M2),
    asap7.width_rule(asap7.M2),
    asap7.enclosure_rule(asap7.V2, asap7.M2),
]


class TestWindowedChecking:
    def test_matches_full_check_filtered(self, dirty_design):
        layout, _ = dirty_design
        window = Rect(0, 1500, 2000, 3500)  # covers part of the scratch strip
        full = Engine(mode="sequential").check(layout, rules=RULES)
        windowed = check_window(layout, window, rules=RULES)
        for full_result, win_result in zip(full.results, windowed.results):
            expected = frozenset(
                v for v in full_result.violations if v.region.overlaps(window)
            )
            assert win_result.violation_set() == expected, full_result.rule.name

    def test_window_far_from_violations_is_clean(self, dirty_design):
        layout, _ = dirty_design
        window = Rect(0, 0, 500, 500)  # inside the clean core
        report = check_window(layout, window, rules=RULES)
        assert report.passed

    def test_window_over_everything_equals_full(self, dirty_design):
        layout, expected = dirty_design
        window = Rect(-10_000, -10_000, 100_000, 100_000)
        report = check_window(layout, window, rules=RULES)
        full = Engine(mode="sequential").check(layout, rules=RULES)
        assert report.total_violations == full.total_violations

    def test_empty_window_rejected(self, dirty_design):
        layout, _ = dirty_design
        with pytest.raises(ValueError):
            check_window(layout, EMPTY_RECT, rules=RULES)

    def test_violation_pair_straddling_window_edge(self):
        """A violating pair with only one polygon inside the window."""
        from repro.geometry import Polygon
        from repro.layout import Layout
        from repro.core.rules import layer

        layout = Layout("straddle")
        top = layout.new_cell("top")
        top.add_polygon(1, Polygon.from_rect_coords(0, 0, 100, 10))
        top.add_polygon(1, Polygon.from_rect_coords(0, 14, 100, 24))
        layout.set_top("top")
        # Window touches only the lower wire; the violation strip overlaps it.
        window = Rect(0, 0, 100, 11)
        report = check_window(
            layout, window, rules=[layer(1).spacing().greater_than(8)]
        )
        assert report.total_violations == 1

    def test_report_mode_label(self, dirty_design):
        layout, _ = dirty_design
        report = check_window(layout, Rect(0, 0, 10, 10), rules=RULES)
        assert report.mode == "windowed"


WINDOW_SETS = {
    "disjoint": [Rect(0, 1500, 2000, 2200), Rect(0, 2800, 2000, 3500)],
    "overlapping": [Rect(0, 1500, 2000, 2600), Rect(0, 2400, 2000, 3500)],
    "nested": [Rect(0, 1500, 2000, 3500), Rect(500, 2000, 1500, 2500)],
    "abutting": [Rect(0, 1500, 2000, 2500), Rect(0, 2500, 2000, 3500)],
}


class TestMultiWindowChecking:
    @pytest.mark.parametrize("name", sorted(WINDOW_SETS), ids=sorted(WINDOW_SETS))
    def test_matches_full_check_filtered_to_region_set(self, dirty_design, name):
        from repro.spatial.regions import RegionSet

        layout, _ = dirty_design
        windows = WINDOW_SETS[name]
        regions = RegionSet.of(windows)
        full = Engine(mode="sequential").check(layout, rules=RULES)
        windowed = check_window(layout, windows, rules=RULES)
        for full_result, win_result in zip(full.results, windowed.results):
            expected = frozenset(
                v for v in full_result.violations if regions.overlaps(v.region)
            )
            assert win_result.violation_set() == expected, full_result.rule.name

    def test_multi_window_equals_union_of_windows(self, dirty_design):
        """Coalescing is exact: the set behaves as the union of its inputs."""
        layout, _ = dirty_design
        windows = WINDOW_SETS["overlapping"]
        merged = check_window(layout, windows, rules=RULES)
        singles = [check_window(layout, [w], rules=RULES) for w in windows]
        for index, result in enumerate(merged.results):
            union = frozenset().union(
                *(report.results[index].violation_set() for report in singles)
            )
            assert result.violation_set() == union, result.rule.name

    def test_no_duplicates_across_straddled_windows(self):
        """A polygon under several windows gathers once (no self-spacing)."""
        from repro.layout import Layout
        from repro.geometry import Polygon
        from repro.core.rules import layer as L

        layout = Layout("straddle2")
        top = layout.new_cell("top")
        top.add_polygon(1, Polygon.from_rect_coords(0, 0, 300, 10))
        layout.set_top("top")
        windows = [Rect(0, 0, 100, 10), Rect(200, 0, 300, 10)]
        report = check_window(
            layout, windows, rules=[L(1).spacing().greater_than(8)]
        )
        assert report.passed

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_byte_identical_across_backends(self, dirty_design, mode):
        from repro.core import EngineOptions

        layout, _ = dirty_design
        windows = WINDOW_SETS["overlapping"]
        baseline = check_window(layout, windows, rules=RULES)
        options = EngineOptions(mode=mode)
        report = check_window(layout, windows, rules=RULES, options=options)
        assert report.to_csv() == baseline.to_csv()
        assert report.to_json() != ""  # schema renders for windowed runs too

    def test_all_empty_windows_rejected(self, dirty_design):
        layout, _ = dirty_design
        with pytest.raises(ValueError):
            check_window(layout, [EMPTY_RECT, EMPTY_RECT], rules=RULES)

import pytest

from repro.core import Engine
from repro.core.markers import (
    MarkerError,
    diff_markers,
    load_markers,
    report_from_dict,
    report_to_dict,
    save_markers,
)
from repro.core.rules import layer
from repro.geometry import Polygon, Rect
from repro.layout import Layout
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations


def dirty_report():
    layout = build_design("uart")
    inject_violations(layout, InjectionPlan(spacing=3, width=2), layer=asap7.M2, seed=4)
    deck = [asap7.spacing_rule(asap7.M2), asap7.width_rule(asap7.M2)]
    return Engine(mode="sequential").check(layout, rules=deck), layout


class TestMarkers:
    def test_round_trip_equal_violations(self, tmp_path):
        report, _ = dirty_report()
        path = tmp_path / "markers.json"
        save_markers(report, path)
        loaded = load_markers(path)
        assert loaded.layout_name == report.layout_name
        for a, b in zip(report.results, loaded.results):
            assert a.rule.name == b.rule.name
            assert a.violation_set() == b.violation_set()

    def test_enclosure_and_corner_kinds_round_trip(self, tmp_path):
        layout = Layout("mk")
        top = layout.new_cell("top")
        top.add_polygon(2, Polygon.from_rect_coords(0, 0, 4, 4))  # via, no metal
        top.add_polygon(1, Polygon.from_rect_coords(100, 100, 110, 110))
        top.add_polygon(1, Polygon.from_rect_coords(113, 113, 123, 123))
        layout.set_top("top")
        deck = [
            layer(2).enclosure(layer(1)).greater_than(3),
            layer(1).corner_spacing().greater_than(8),
        ]
        report = Engine(mode="sequential").check(layout, rules=deck)
        assert report.total_violations == 2
        path = tmp_path / "m.json"
        save_markers(report, path)
        loaded = load_markers(path)
        for a, b in zip(report.results, loaded.results):
            assert a.violation_set() == b.violation_set()

    def test_bad_format_rejected(self):
        with pytest.raises(MarkerError):
            report_from_dict({"format": 99, "results": []})

    def test_bad_kind_rejected(self):
        data = report_to_dict(dirty_report()[0])
        data["results"][0]["kind"] = "teleportation"
        with pytest.raises(MarkerError):
            report_from_dict(data)

    def test_diff_markers(self):
        report, layout = dirty_report()
        # "Fix" everything by re-checking a clean design under the same rules.
        clean = Engine(mode="sequential").check(
            build_design("uart"),
            rules=[asap7.spacing_rule(asap7.M2), asap7.width_rule(asap7.M2)],
        )
        diff = diff_markers(report, clean)
        assert diff["M2.S.1"]["fixed"] == 3 and diff["M2.S.1"]["new"] == 0
        assert diff["M2.W.1"]["fixed"] == 2
        same = diff_markers(report, report)
        assert all(d["fixed"] == 0 and d["new"] == 0 for d in same.values())


class TestWaivers:
    def test_waiver_suppresses_matching_violation(self):
        from repro.core.markers import apply_waivers

        report, _ = dirty_report()
        spacing = report.result("M2.S.1")
        target = spacing.violations[0]
        waived = apply_waivers(
            report,
            [{"rule": "M2.S.1", "region": list(target.region.inflated(1))}],
        )
        # Mark-not-drop: the violation stays in the report (same set, so
        # splices/diffs are oblivious) but no longer blocks.
        marked = waived.result("M2.S.1")
        assert marked.num_violations == spacing.num_violations
        assert marked.num_waived == 1
        assert marked.num_blocking == spacing.num_violations - 1
        assert marked.violation_set() == spacing.violation_set()
        # Other rules untouched.
        assert waived.result("M2.W.1").num_waived == 0
        # Original report unchanged.
        assert report.result("M2.S.1").num_waived == 0

    def test_star_rule_waives_everything_in_region(self):
        from repro.core.markers import apply_waivers

        report, _ = dirty_report()
        everything = [{"rule": "*", "region": [-10**9, -10**9, 10**9, 10**9]}]
        waived = apply_waivers(report, everything)
        assert waived.total_violations == report.total_violations
        assert waived.total_waived == report.total_violations
        assert waived.blocking_violations == 0
        assert waived.ok

    def test_partial_overlap_not_waived(self):
        from repro.core.markers import apply_waivers

        report, _ = dirty_report()
        target = report.result("M2.S.1").violations[0]
        clipped = Rect(
            target.region.xlo + 1, target.region.ylo,
            target.region.xhi, target.region.yhi,
        )
        waived = apply_waivers(
            report, [{"rule": "M2.S.1", "region": list(clipped)}]
        )
        assert waived.total_violations == report.total_violations
        assert waived.total_waived == 0

    def test_waiver_round_trip(self, tmp_path):
        from repro.core.markers import load_waivers, save_waivers

        waivers = [{"rule": "M2.S.1", "region": [0, 0, 10, 10]}]
        path = tmp_path / "waivers.json"
        save_waivers(waivers, path)
        assert load_waivers(path) == waivers

    def test_bad_waiver_region_rejected(self):
        from repro.core.markers import MarkerError, apply_waivers

        report, _ = dirty_report()
        with pytest.raises(MarkerError):
            apply_waivers(report, [{"rule": "*", "region": [1, 2, 3]}])

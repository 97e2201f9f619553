import pytest

from repro.core import Engine
from repro.core.rules import layer, polygons
from repro.core.sequential import SequentialBackend
from repro.geometry import Polygon, Transform
from repro.layout import CellReference, Layout
from repro.util.profile import PHASE_EDGE_CHECKS


def simple_layout() -> Layout:
    """Two narrow wires 5 apart, reused twice through a child cell."""
    layout = Layout("simple")
    pair = layout.new_cell("pair")
    pair.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 100))
    pair.add_polygon(1, Polygon.from_rect_coords(15, 0, 25, 100))
    top = layout.new_cell("top")
    top.add_reference(CellReference("pair", Transform()))
    top.add_reference(CellReference("pair", Transform(dx=1000)))
    layout.set_top("top")
    return layout


class TestEngineBasics:
    def test_requires_rules(self):
        with pytest.raises(ValueError):
            Engine().check(simple_layout())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Engine(mode="quantum")

    def test_add_rules_chainable_and_validated(self):
        engine = Engine().add_rules([layer(1).width().greater_than(5)])
        assert len(engine.rules) == 1
        from repro.errors import RuleError

        with pytest.raises(RuleError):
            engine.add_rules([layer(1).width().greater_than(5)])  # duplicate name

    def test_clear_rules(self):
        engine = Engine().add_rules([layer(1).width().greater_than(5)])
        engine.clear_rules()
        assert engine.rules == []


class TestSequentialResults:
    def test_spacing_found_in_each_instance(self):
        engine = Engine(mode="sequential")
        report = engine.check(simple_layout(), rules=[layer(1).spacing().greater_than(8)])
        result = report.results[0]
        assert result.num_violations == 2
        regions = sorted(v.region.xlo for v in result.violations)
        assert regions == [10, 1010]

    def test_spacing_satisfied(self):
        engine = Engine(mode="sequential")
        report = engine.check(simple_layout(), rules=[layer(1).spacing().greater_than(5)])
        assert report.passed

    def test_width_memoised_across_instances(self):
        engine = Engine(mode="sequential")
        report = engine.check(simple_layout(), rules=[layer(1).width().greater_than(12)])
        result = report.results[0]
        assert result.num_violations == 4  # 2 wires x 2 instances
        assert result.stats["checks_run"] == 1
        assert result.stats["checks_reused"] == 1

    def test_area_rule(self):
        engine = Engine(mode="sequential")
        report = engine.check(simple_layout(), rules=[layer(1).area().greater_than(1001)])
        assert report.results[0].num_violations == 4

    def test_rectilinear_and_ensures(self):
        engine = Engine(mode="sequential")
        report = engine.check(
            simple_layout(),
            rules=[
                polygons().is_rectilinear(),
                layer(1).polygons().ensures(lambda p: p.area > 0),
            ],
        )
        assert report.passed

    def test_enclosure_cross_cell(self):
        layout = Layout("enc")
        metal = layout.new_cell("metal")
        metal.add_polygon(1, Polygon.from_rect_coords(0, 0, 30, 30))
        top = layout.new_cell("top")
        top.add_reference(CellReference("metal", Transform()))
        top.add_polygon(2, Polygon.from_rect_coords(10, 10, 14, 14))  # via at top
        layout.set_top("top")
        engine = Engine(mode="sequential")
        ok = engine.check(layout, rules=[layer(2).enclosure(layer(1)).greater_than(10)])
        assert ok.passed
        bad = engine.check(layout, rules=[layer(2).enclosure(layer(1)).greater_than(11)])
        assert bad.results[0].num_violations == 1
        assert bad.results[0].violations[0].measured == 10

    def test_profile_phases_recorded(self):
        engine = Engine(mode="sequential")
        engine.add_rules([layer(1).spacing().greater_than(8)])
        engine.check(simple_layout())
        profile = engine.last_profiles["L1.S.8"]
        assert profile.total > 0
        assert profile.seconds(PHASE_EDGE_CHECKS) > 0

    def test_rows_disabled_same_results(self):
        rule = layer(1).spacing().greater_than(8)
        with_rows = Engine(mode="sequential").check(simple_layout(), rules=[rule])
        without = SequentialBackend(simple_layout(), use_rows=False).run(rule)
        assert with_rows.results[0].violation_set() == frozenset(without)


class TestMagnifiedInstances:
    def test_magnified_spacing_rechecked(self):
        layout = Layout("mag")
        pair = layout.new_cell("pair")
        pair.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 100))
        pair.add_polygon(1, Polygon.from_rect_coords(16, 0, 26, 100))  # gap 6
        top = layout.new_cell("top")
        top.add_reference(CellReference("pair", Transform()))
        top.add_reference(CellReference("pair", Transform(dx=5000, magnification=2)))
        layout.set_top("top")
        engine = Engine(mode="sequential")
        # Rule 8: unit instance violates (6 < 8); magnified gap 12 passes.
        report = engine.check(layout, rules=[layer(1).spacing().greater_than(8)])
        assert report.results[0].num_violations == 1
        # Rule 13: unit gap 6 and magnified gap 12 both violate.
        report = engine.check(layout, rules=[layer(1).spacing().greater_than(13)])
        assert report.results[0].num_violations == 2


class TestReport:
    def test_summary_and_csv(self):
        engine = Engine(mode="sequential")
        report = engine.check(simple_layout(), rules=[layer(1).spacing().greater_than(8)])
        assert "simple" in report.summary()
        csv = report.to_csv()
        assert csv.splitlines()[0].startswith("rule,kind")
        # The two markers are translation-identical, so the default CSV
        # collapses them to one exemplar row with instances=2 ...
        assert len(csv.splitlines()) == 1 + 1
        assert csv.splitlines()[1].endswith(",2")
        # ... and --expand-instances emits each as its own row.
        expanded = report.to_csv(expand_instances=True)
        assert len(expanded.splitlines()) == 1 + 2
        assert all(line.endswith(",1") for line in expanded.splitlines()[1:])

    def test_result_lookup(self):
        engine = Engine(mode="sequential")
        rule = layer(1).spacing().greater_than(8).named("SP")
        report = engine.check(simple_layout(), rules=[rule])
        assert report.result("SP").rule is rule
        with pytest.raises(KeyError):
            report.result("missing")

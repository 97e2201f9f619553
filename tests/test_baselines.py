import pytest

from repro.baselines import KLayoutLikeChecker, UnsupportedRuleError, XCheckChecker
from repro.core import Engine
from repro.core.rules import layer
from repro.geometry import Polygon, Transform
from repro.layout import CellReference, Layout
from repro.workloads import asap7


def small_layout() -> Layout:
    layout = Layout("bl")
    pair = layout.new_cell("pair")
    pair.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 100))
    pair.add_polygon(1, Polygon.from_rect_coords(15, 0, 25, 100))
    top = layout.new_cell("top")
    top.add_reference(CellReference("pair", Transform()))
    top.add_reference(CellReference("pair", Transform(dx=3000)))
    top.add_polygon(2, Polygon.from_rect_coords(100, 200, 104, 204))  # via, no metal
    layout.set_top("top")
    return layout


SPACING = layer(1).spacing().greater_than(8)
WIDTH = layer(1).width().greater_than(12)
AREA = layer(1).area().greater_than(1001)
ENCLOSURE = layer(2).enclosure(layer(1)).greater_than(3)


def reference_set(rule):
    report = Engine(mode="sequential").check(small_layout(), rules=[rule])
    return report.results[0].violation_set()


class TestKLayoutModes:
    @pytest.mark.parametrize("mode", ["flat", "deep", "tile"])
    @pytest.mark.parametrize(
        "rule", [SPACING, WIDTH, AREA, ENCLOSURE], ids=["space", "width", "area", "enc"]
    )
    def test_agrees_with_engine(self, mode, rule):
        checker = KLayoutLikeChecker(small_layout(), mode)
        violations, seconds = checker.run(rule)
        assert frozenset(violations) == reference_set(rule)
        assert seconds >= 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            KLayoutLikeChecker(small_layout(), "turbo")

    def test_tile_mode_reports_model_stats(self):
        checker = KLayoutLikeChecker(small_layout(), "tile", workers=4)
        checker.run(SPACING)
        assert "serial_seconds" in checker.last_stats
        assert checker.last_stats["modelled_wall_seconds"] <= (
            checker.last_stats["serial_seconds"] + 1e-9
        )

    def test_tile_dedup_across_tile_boundaries(self):
        # A violating pair that straddles a tile boundary must appear once.
        layout = Layout("straddle")
        top = layout.new_cell("top")
        top.add_polygon(1, Polygon.from_rect_coords(2040, 0, 2046, 100))
        top.add_polygon(1, Polygon.from_rect_coords(2050, 0, 2060, 100))
        layout.set_top("top")
        checker = KLayoutLikeChecker(layout, "tile", tile_size=2048)
        violations, _ = checker.run(layer(1).spacing().greater_than(8))
        assert len(violations) == 1

    def test_flat_normalization_counts_regions(self):
        checker = KLayoutLikeChecker(small_layout(), "flat")
        checker.run(SPACING)
        assert checker.last_stats.get("regions[L1]") == 4

    def test_check_deck_report(self):
        checker = KLayoutLikeChecker(small_layout(), "flat")
        report = checker.check([SPACING, WIDTH])
        assert report.mode == "klayout-flat"
        assert len(report.results) == 2


class TestXCheck:
    @pytest.mark.parametrize("rule", [SPACING, WIDTH, ENCLOSURE], ids=["space", "width", "enc"])
    def test_agrees_with_engine(self, rule):
        checker = XCheckChecker(small_layout())
        violations, _ = checker.run(rule)
        assert frozenset(violations) == reference_set(rule)

    def test_area_unsupported(self):
        checker = XCheckChecker(small_layout())
        assert not checker.supports(AREA)
        with pytest.raises(UnsupportedRuleError):
            checker.run(AREA)

    def test_flatten_cached_until_cleared(self, uart_layout):
        checker = XCheckChecker(uart_layout)
        checker.run(asap7.spacing_rule(asap7.M1))
        assert asap7.M1 in checker._flat_cache
        checker.clear_cache()
        assert checker._flat_cache == {}

    def test_device_copies_and_launches_counted(self):
        checker = XCheckChecker(small_layout())
        checker.run(SPACING)
        counters = checker.device.counters()
        assert counters["kernel_launches"] > 0 and counters["h2d_copies"] > 0


class TestBaselinesOnDesigns:
    @pytest.mark.parametrize("mode", ["flat", "deep", "tile"])
    def test_klayout_matches_engine_on_uart(self, mode, uart_layout):
        deck = [asap7.spacing_rule(asap7.M2), asap7.width_rule(asap7.M1)]
        engine_report = Engine(mode="sequential")
        checker = KLayoutLikeChecker(uart_layout, mode)
        reference = engine_report.check(uart_layout, rules=deck)
        for i, rule in enumerate(deck):
            violations, _ = checker.run(rule)
            assert frozenset(violations) == reference.results[i].violation_set()

    def test_xcheck_matches_engine_on_uart(self, uart_layout):
        deck = [asap7.spacing_rule(asap7.M2), asap7.enclosure_rule(asap7.V1, asap7.M1)]
        reference = Engine(mode="sequential").check(uart_layout, rules=deck)
        checker = XCheckChecker(uart_layout)
        for i, rule in enumerate(deck):
            violations, _ = checker.run(rule)
            assert frozenset(violations) == reference.results[i].violation_set()

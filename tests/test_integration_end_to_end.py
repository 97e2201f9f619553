"""End-to-end integration: GDSII file -> engine -> markers, across modes."""

from repro.core import Engine
from repro.core.rules import layer
from repro.gdsii import read_layout, write
from repro.layout import gdsii_from_layout
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations


class TestFileToReport:
    def test_design_through_disk_matches_memory(self, tmp_path):
        memory_layout = build_design("uart")
        path = tmp_path / "uart.gds"
        write(gdsii_from_layout(memory_layout), path)
        disk_layout = read_layout(path)
        disk_layout.set_top("top")

        deck = asap7.full_deck()
        from_memory = Engine(mode="sequential").check(memory_layout, rules=deck)
        from_disk = Engine(mode="sequential").check(disk_layout, rules=deck)
        for a, b in zip(from_memory.results, from_disk.results):
            assert a.violation_set() == b.violation_set(), a.rule.name

    def test_dirty_design_through_disk(self, tmp_path):
        layout = build_design("uart")
        expected = inject_violations(
            layout, InjectionPlan(spacing=3), layer=asap7.M2, seed=6
        )
        path = tmp_path / "dirty.gds"
        write(gdsii_from_layout(layout), path)
        reloaded = read_layout(path)
        reloaded.set_top("top")
        report = Engine(mode="parallel").check(
            reloaded, rules=[asap7.spacing_rule(asap7.M2)]
        )
        assert report.results[0].violation_set() == frozenset(expected)


class TestOverlapRuleOnDesigns:
    def test_vias_fully_land_on_metal(self, uart_layout):
        deck = [
            layer(asap7.V1).overlap(layer(asap7.M1)).greater_than(
                asap7.V1_SIZE ** 2
            ).named("V1.M1.OV"),
            layer(asap7.V2).overlap(layer(asap7.M2)).greater_than(
                asap7.V2_SIZE ** 2
            ).named("V2.M2.OV"),
        ]
        report = Engine(mode="sequential").check(uart_layout, rules=deck)
        assert report.passed, report.summary()

    def test_stricter_threshold_flags_every_via(self, uart_layout):
        rule = layer(asap7.V1).overlap(layer(asap7.M1)).greater_than(
            asap7.V1_SIZE ** 2 + 1
        )
        report = Engine(mode="sequential").check(uart_layout, rules=[rule])
        from repro.layout import count_flat_polygons

        via_count = count_flat_polygons(uart_layout)[asap7.V1]
        assert report.results[0].num_violations == via_count


class TestMixedDeckModes:
    def test_extended_deck_modes_agree(self, ibex_layout):
        deck = asap7.full_deck() + [
            layer(asap7.M3).corner_spacing().greater_than(20).named("M3.CS.1"),
            layer(asap7.V2).overlap(layer(asap7.M3)).greater_than(100).named("V2.M3.OV"),
        ]
        seq = Engine(mode="sequential").check(ibex_layout, rules=deck)
        par = Engine(mode="parallel").check(ibex_layout, rules=deck)
        for a, b in zip(seq.results, par.results):
            assert a.violation_set() == b.violation_set(), a.rule.name

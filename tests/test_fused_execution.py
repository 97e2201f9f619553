"""Fused segmented-row execution: equivalence, pack cache, engine knobs.

The tentpole property: for every rule kind that rides the row partition,
the fused dispatch (one segmented launch per orientation per rule), the
sequential checker and the windowed backend (one window over everything)
must report the same violation multiset — on randomized hierarchical
layouts and on the workload designs.
"""

from collections import Counter

import pytest

from repro.core import Engine, EngineOptions, check_window
from repro.core.parallel import ParallelBackend
from repro.core.rules import layer
from repro.geometry import Rect
from repro.workloads import asap7, random_hierarchical_layout

from .via_layouts import random_via_layout


EVERYTHING = Rect(-10 ** 7, -10 ** 7, 10 ** 7, 10 ** 7)


def multisets(layout, rule):
    reports = {
        "fused": Engine(mode="parallel").check(layout, rules=[rule]),
        "sequential": Engine(mode="sequential").check(layout, rules=[rule]),
        "windowed": check_window(layout, EVERYTHING, rules=[rule]),
    }
    return {
        name: Counter(report.results[0].violations)
        for name, report in reports.items()
    }


def assert_equivalent(layout, rule):
    results = multisets(layout, rule)
    reference = results["sequential"]
    for name, got in results.items():
        assert got == reference, (
            f"{name} disagrees on {rule.name}: "
            f"extra={got - reference}, missing={reference - got}"
        )


class TestFusedEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_spacing_random_hierarchical(self, seed):
        layout = random_hierarchical_layout(instances=40, seed=seed)
        assert_equivalent(layout, layer(1).spacing().greater_than(7))

    @pytest.mark.parametrize("seed", range(3))
    def test_width_random_hierarchical(self, seed):
        layout = random_hierarchical_layout(instances=30, seed=30 + seed)
        assert_equivalent(layout, layer(1).width().greater_than(8))

    @pytest.mark.parametrize("seed", range(3))
    def test_corner_random_hierarchical(self, seed):
        layout = random_hierarchical_layout(instances=30, seed=60 + seed)
        assert_equivalent(layout, layer(1).corner_spacing().greater_than(6))

    @pytest.mark.parametrize("seed", range(3))
    def test_enclosure_random_hierarchical(self, seed):
        layout = random_via_layout(90 + seed)
        assert_equivalent(layout, layer(2).enclosure(layer(1)).greater_than(3))

    def test_full_deck_uart(self, uart_layout):
        deck = asap7.full_deck()
        a = Engine(mode="parallel").check(uart_layout, rules=deck)
        b = check_window(uart_layout, EVERYTHING, rules=deck)
        for ra, rb in zip(a.results, b.results):
            assert Counter(ra.violations) == Counter(rb.violations), ra.rule.name

    def test_rows_off_fused_still_agrees(self, uart_layout, monkeypatch):
        rule = asap7.spacing_rule(asap7.M3)
        monkeypatch.setattr(ParallelBackend, "use_rows", False)
        off = Engine(mode="parallel").check(uart_layout, rules=[rule])
        seq = Engine(mode="sequential").check(uart_layout, rules=[rule])
        assert off.results[0].violation_set() == seq.results[0].violation_set()


class TestLaunchReduction:
    def test_fusion_stats_counted(self, uart_layout):
        engine = Engine(mode="parallel")
        engine.check(uart_layout, rules=[asap7.spacing_rule(asap7.M3)])
        stats = engine.last_checker.stats()
        # One launch per orientation per lane, however many rows there are.
        assert 0 < stats["fused_launches"] <= 4
        assert stats["fused_segments"] >= stats["fused_launches"]
        assert (
            stats["kernels_bruteforce"] + stats["kernels_sweepline"]
            == stats["fused_segments"]
        )


class TestPackCache:
    def test_hits_across_rules_sharing_a_layer(self, uart_layout):
        engine = Engine(mode="parallel")
        deck = [
            asap7.spacing_rule(asap7.M2),
            asap7.width_rule(asap7.M2),
            asap7.area_rule(asap7.M2),
            asap7.enclosure_rule(asap7.V2, asap7.M2),
        ]
        engine.check(uart_layout, rules=deck)
        cache = engine.last_checker.pack_cache
        assert cache.hits > 0
        assert cache.misses > 0

    def test_single_rule_deck_has_no_hits(self, uart_layout):
        engine = Engine(mode="parallel")
        engine.check(uart_layout, rules=[asap7.spacing_rule(asap7.M1)])
        assert engine.last_checker.pack_cache.hits == 0

    def test_distance_change_reuses_level_items_only(self):
        # Two spacing rules whose margins differ partition the layer
        # differently: the second reuses the top level's item MBRs (and the
        # plan's one instance table) and nothing else — row buffers must
        # not leak between them.
        layout = random_hierarchical_layout(instances=40, seed=7)
        near = layer(1).spacing().greater_than(5)
        far = layer(1).spacing().greater_than(600)
        engine = Engine(mode="parallel")
        par = engine.check(layout, rules=[near, far])
        seq = Engine(mode="sequential").check(layout, rules=[near, far])
        for a, b in zip(par.results, seq.results):
            assert Counter(a.violations) == Counter(b.violations), a.rule.name
        cache = engine.last_checker.pack_cache
        assert {name: len(bucket) for name, bucket in cache._stores.items()} == {
            "item-mbrs": 1, "partition": 2, "fused-edges": 2,
        }
        assert (cache.hits, cache.misses) == (1, 5)
        near_rows, far_rows = (key[1] for key in cache._stores["fused-edges"])
        assert len(near_rows) > len(far_rows)

    def test_stats_expose_cache_and_device_counters(self, uart_layout):
        engine = Engine(mode="parallel")
        report = engine.check(
            uart_layout,
            rules=[asap7.spacing_rule(asap7.M2), asap7.spacing_rule(asap7.M3)],
        )
        stats = report.results[-1].stats
        assert stats["kernel_launches"] > 0
        assert stats["h2d_copies"] > 0
        assert stats["fused_launches"] > 0
        assert stats["pack_cache_misses"] > 0
        assert "pack_cache_hits" in stats


class TestEngineInit:
    def test_conflicting_modes_raise(self):
        with pytest.raises(ValueError, match="conflicting modes"):
            Engine(mode="sequential", options=EngineOptions(mode="parallel"))

    def test_matching_modes_accepted(self):
        engine = Engine(mode="parallel", options=EngineOptions(mode="parallel"))
        assert engine.options.mode == "parallel"

    def test_mode_alone(self):
        assert Engine(mode="parallel").options.mode == "parallel"
        assert Engine().options.mode == "sequential"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            Engine(mode="warp-drive")

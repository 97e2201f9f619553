"""Fused segmented-row execution: equivalence, pack cache, engine knobs.

The tentpole property: for every rule kind that rides the row partition,
the fused dispatch (one segmented launch per orientation per rule), the
sequential checker and the windowed backend (one window over everything)
must report the same violation multiset — on randomized hierarchical
layouts and on the workload designs.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core import Engine, EngineOptions, check_window
from repro.core.parallel import ROW_COUNTERS, ParallelBackend, run_row_task, select_rows
from repro.core.plan import compile_plan
from repro.core.rules import layer
from repro.geometry import Polygon, Rect
from repro.layout import Layout
from repro.util.profile import PhaseProfile
from repro.workloads import asap7, random_hierarchical_layout


def random_via_layout(seed: int, *, kinds: int = 3, instances: int = 30) -> Layout:
    """Random hierarchical metal (layer 1) + via (layer 2) layout.

    Vias sit inside their metal with a random margin, so some violate a
    modest enclosure rule and some do not.
    """
    from repro.layout import CellReference
    from repro.geometry import Transform

    rng = random.Random(seed)
    layout = Layout(f"vias-{seed}")
    for kind in range(kinds):
        leaf = layout.new_cell(f"leaf_{kind}")
        for _ in range(rng.randint(1, 4)):
            x, y = rng.randint(0, 120), rng.randint(0, 120)
            w, h = rng.randint(14, 36), rng.randint(14, 36)
            leaf.add_polygon(1, Polygon.from_rect_coords(x, y, x + w, y + h))
            margin = rng.randint(0, 5)
            leaf.add_polygon(
                2,
                Polygon.from_rect_coords(
                    x + margin, y + margin, x + margin + 4, y + margin + 4
                ),
            )
    top = layout.new_cell("top")
    for _ in range(instances):
        top.add_reference(
            CellReference(
                f"leaf_{rng.randrange(kinds)}",
                Transform(
                    dx=rng.randint(0, 4000),
                    dy=rng.randint(0, 4000),
                    rotation=rng.choice((0, 90, 180, 270)),
                    mirror_x=rng.random() < 0.5,
                ),
            )
        )
    layout.set_top("top")
    return layout


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


class TestRowSelection:
    """Rows are whole segments, so a launch over any selection of rows finds
    what the launch over everything finds in those rows."""

    @pytest.mark.parametrize("shard_rows", [1, 2, None], ids=["1", "2", "all"])
    @pytest.mark.parametrize("seed", range(3))
    def test_enclosure_sharded_by_row_matches_the_unsharded_launch(self, seed, shard_rows):
        layout = random_via_layout(40 + seed, instances=40)
        rule = layer(2).enclosure(layer(1)).greater_than(3)
        options = EngineOptions(mode="parallel", use_cache=False)
        backend = ParallelBackend(compile_plan(layout, [rule], options))
        work = backend.row_work(rule, PhaseProfile())

        def launch(buffers):
            return run_row_task(
                rule, buffers, backend.brute_force_threshold,
                backend.executors, PhaseProfile(),
            )

        expected, expected_counters = launch(work.buffers)
        rows = np.flatnonzero(work.weights).tolist()
        assert expected and len(rows) > 4

        step = shard_rows or len(rows)
        shards = [rows[i : i + step] for i in range(0, len(rows), step)]
        found = Counter()
        summed = Counter()
        for shard in shards:
            violations, counters = launch(select_rows(work.buffers, shard))
            found.update(violations)
            summed.update(counters)
        assert found == Counter(expected)
        assert summed["fused_launches"] == len(shards)
        for key in ROW_COUNTERS:
            if key != "fused_launches":
                assert summed[key] == expected_counters[key], key
        assert summed["fused_segments"] == len(rows)


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

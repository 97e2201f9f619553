"""CheckPlan IR + Backend protocol: compilation, equivalence, caching.

The tentpole property of the plan pipeline: every execution path —
sequential CPU sweeps, fused/per-row simulated-GPU kernels, and the
windowed gatherer — consumes the same compiled plan and produces the same
*canonical violation list* (reports sort violations totally, so list
equality is set equality).
"""

import random

import pytest

from repro.core import (
    Backend,
    Engine,
    EngineOptions,
    check_window,
    compile_plan,
    kind_spec,
    make_backend,
)
from repro.core.plan import ALL_MODES, KIND_SPECS, MODE_WINDOWED
from repro.core.rules import Rule, RuleKind, layer
from repro.geometry import Polygon, Rect, Transform
from repro.layout import CellReference, Layout
from repro.workloads import random_hierarchical_layout


def two_layer_layout(seed: int, *, kinds: int = 3, instances: int = 30) -> Layout:
    """Random hierarchical metal (layer 1) + via (layer 2) layout.

    Vias sit inside their metal with a random margin, so enclosure and
    overlap rules find both passing and failing instances; metals are close
    enough for spacing/corner rules to fire.
    """
    rng = random.Random(seed)
    layout = Layout(f"planned-{seed}")
    for kind in range(kinds):
        leaf = layout.new_cell(f"leaf_{kind}")
        for _ in range(rng.randint(1, 4)):
            x, y = rng.randint(0, 120), rng.randint(0, 120)
            w, h = rng.randint(12, 36), rng.randint(12, 36)
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
                    dx=rng.randint(0, 3000),
                    dy=rng.randint(0, 3000),
                    rotation=rng.choice((0, 90, 180, 270)),
                    mirror_x=rng.random() < 0.5,
                ),
            )
        )
    layout.set_top("top")
    return layout


def all_kind_rules():
    """One rule of every registered kind, exercising both layers."""
    return [
        layer(1).polygons().is_rectilinear().named("SHAPE"),
        layer(1).width().greater_than(14).named("W"),
        layer(1).spacing().greater_than(9).named("S"),
        layer(1).area().greater_than(400).named("A"),
        layer(1).corner_spacing().greater_than(7).named("C"),
        # Rotation-invariant predicate (instances are placed under every
        # rigid transform, and intra results are reused across instances).
        layer(1).polygons().ensures(
            lambda p: min(p.mbr.xhi - p.mbr.xlo, p.mbr.yhi - p.mbr.ylo) >= 13
        ).named("E"),
        layer(1).same_mask_spacing().greater_than(9).named("DP"),
        layer(2).enclosure(layer(1)).greater_than(3).named("ENC"),
        layer(2).overlap(layer(1)).greater_than(12).named("OVL"),
    ]


ALL_KINDS = frozenset(RuleKind)


class TestKindRegistry:
    def test_every_rule_kind_has_a_spec(self):
        assert frozenset(KIND_SPECS) == ALL_KINDS

    def test_specs_carry_flat_procedures(self):
        for kind in RuleKind:
            assert callable(kind_spec(kind).flat), kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(NotImplementedError):
            kind_spec("astral-projection")

    def test_deck_covers_every_kind(self):
        # Guard: the equivalence tests below really do span the registry.
        assert {r.kind for r in all_kind_rules()} == ALL_KINDS


class TestPlanCompilation:
    def test_compile_resolves_specs_and_dependencies(self):
        layout = two_layer_layout(1)
        plan = compile_plan(layout, all_kind_rules())
        assert [c.rule.name for c in plan.compiled] == [
            r.name for r in all_kind_rules()
        ]
        for compiled in plan.compiled:
            assert compiled.spec is kind_spec(compiled.rule.kind)
        deps = plan.dependencies()
        # Geometric rules on layer 1 are gated on that layer's shape rule.
        assert deps["W"] == ("SHAPE",)
        assert deps["SHAPE"] == ()
        # Layer-2 rules have no layer-2 shape rule to wait for.
        assert deps["ENC"] == ()

    def test_layer_groups(self):
        plan = compile_plan(two_layer_layout(2), all_kind_rules())
        groups = plan.layer_groups()
        assert {c.name for c in groups[1]} >= {"SHAPE", "W", "S", "A"}
        assert {c.name for c in groups[2]} == {"ENC", "OVL"}

    def test_empty_deck_rejected(self):
        with pytest.raises(ValueError, match="no rules"):
            compile_plan(two_layer_layout(3), [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            compile_plan(
                two_layer_layout(3),
                [layer(1).width().greater_than(5)],
                mode="quantum",
            )

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_all_modes_compile(self, mode):
        plan = compile_plan(
            two_layer_layout(4), [layer(1).width().greater_than(5)], mode=mode
        )
        assert plan.mode == mode

    def test_backends_satisfy_protocol(self):
        layout = two_layer_layout(5)
        rules = [layer(1).spacing().greater_than(8)]
        for mode in ALL_MODES:
            plan = compile_plan(layout, rules, mode=mode)
            backend = make_backend(
                plan,
                window=Rect(0, 0, 100, 100) if mode == MODE_WINDOWED else None,
            )
            assert isinstance(backend, Backend), mode

    def test_windowed_backend_needs_window(self):
        plan = compile_plan(
            two_layer_layout(5),
            [layer(1).spacing().greater_than(8)],
            mode=MODE_WINDOWED,
        )
        with pytest.raises(ValueError, match="window"):
            make_backend(plan)


class TestEngineOptionsValidation:
    def test_num_streams_must_be_positive(self):
        with pytest.raises(ValueError, match="num_streams must be at least 1"):
            EngineOptions(num_streams=0)

    def test_negative_brute_force_threshold_rejected(self):
        with pytest.raises(ValueError, match="brute_force_threshold"):
            EngineOptions(brute_force_threshold=-1)

    def test_zero_threshold_and_one_stream_accepted(self):
        options = EngineOptions(num_streams=1, brute_force_threshold=0)
        assert options.num_streams == 1 and options.brute_force_threshold == 0

    def test_engine_does_not_revalidate(self):
        # Mode validation lives in EngineOptions/compile_plan alone; a valid
        # options object passes straight through Engine.
        assert Engine(options=EngineOptions(mode="parallel")).options.mode == "parallel"


def window_rules(rule: Rule):
    """A rule plus the distance that bounds its violation markers."""
    reach = rule.value if rule.value else 0
    return rule, reach


class TestWindowedEquivalenceAllKinds:
    """check_window == full check then filter, for every rule kind."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "rule", all_kind_rules(), ids=[r.name for r in all_kind_rules()]
    )
    def test_window_matches_filtered_full_check(self, rule, seed):
        layout = two_layer_layout(seed, instances=24)
        full = Engine(mode="sequential").check(layout, rules=[rule])
        for window in (
            Rect(0, 0, 900, 900),
            Rect(500, 500, 2200, 1700),
            Rect(-100, 1200, 3400, 3400),
        ):
            windowed = check_window(layout, window, rules=[rule])
            expected = [
                v for v in full.results[0].violations if v.region.overlaps(window)
            ]
            # Canonical sort makes plain list comparison exact.
            assert windowed.results[0].violations == expected, (rule.name, window)

    @pytest.mark.parametrize("seed", range(2))
    def test_window_over_everything_equals_full(self, seed):
        layout = two_layer_layout(40 + seed)
        rules = all_kind_rules()
        window = Rect(-10_000, -10_000, 50_000, 50_000)
        full = Engine(mode="sequential").check(layout, rules=rules)
        windowed = check_window(layout, window, rules=rules)
        for fr, wr in zip(full.results, windowed.results):
            assert fr.violations == wr.violations, fr.rule.name


class TestBackendEquivalence:
    """sequential == parallel (fused rows) == windowed."""

    @pytest.mark.parametrize("seed", range(3))
    def test_all_backends_same_canonical_lists(self, seed):
        layout = two_layer_layout(70 + seed)
        rules = all_kind_rules()
        window = Rect(-10_000, -10_000, 50_000, 50_000)
        reports = {
            "sequential": Engine(mode="sequential").check(layout, rules=rules),
            "fused": Engine(mode="parallel").check(layout, rules=rules),
            "windowed": check_window(layout, window, rules=rules),
        }
        reference = reports["sequential"]
        for name, report in reports.items():
            for got, want in zip(report.results, reference.results):
                # CheckResult canonicalizes: list equality == set equality.
                assert got.violations == want.violations, (name, want.rule.name)

    def test_single_layer_random_layouts(self):
        for seed in range(3):
            layout = random_hierarchical_layout(instances=35, seed=100 + seed)
            rules = [
                layer(1).spacing().greater_than(7).named("S"),
                layer(1).width().greater_than(8).named("W"),
            ]
            seq = Engine(mode="sequential").check(layout, rules=rules)
            par = Engine(mode="parallel").check(layout, rules=rules)
            for a, b in zip(seq.results, par.results):
                assert a.violations == b.violations, a.rule.name


class TestPlanCacheReuse:
    def test_second_rule_on_same_layer_does_not_repack(self):
        """Same layer + same margin => the plan's pack cache serves rule 2."""
        layout = random_hierarchical_layout(instances=40, seed=11)
        rules = [
            layer(1).spacing().greater_than(7).named("S1"),
            layer(1).spacing().greater_than(7).named("S2"),
        ]
        plan = compile_plan(layout, rules, EngineOptions(mode="parallel"))
        backend = make_backend(plan)
        first = backend.run(plan.rules[0])
        misses_after_first = plan.caches.pack.misses
        second = backend.run(plan.rules[1])
        assert plan.caches.pack.misses == misses_after_first  # zero repacking
        assert plan.caches.pack.hits > 0
        assert first == second

    def test_backends_share_plan_caches(self):
        layout = random_hierarchical_layout(instances=30, seed=12)
        rule = layer(1).spacing().greater_than(7)
        plan = compile_plan(layout, [rule], EngineOptions(mode="parallel"))
        parallel = make_backend(plan)
        parallel.run(rule)
        misses = plan.caches.pack.misses
        # A sequential backend over the same plan reuses the level items.
        from repro.core.sequential import SequentialBackend

        sequential = SequentialBackend(plan)
        sequential.run(rule)
        assert plan.caches.pack.hits > 0
        assert plan.caches.pack.misses >= misses

    def test_engine_reports_cache_stats(self):
        layout = random_hierarchical_layout(instances=30, seed=13)
        engine = Engine(mode="parallel")
        report = engine.check(
            layout,
            rules=[
                layer(1).spacing().greater_than(7).named("S1"),
                layer(1).spacing().greater_than(7).named("S2"),
            ],
        )
        assert report.results[-1].stats["pack_cache_hits"] > 0


class TestSchedulerDrivenExecution:
    def test_shape_rule_runs_before_dependents(self):
        layout = two_layer_layout(21)
        # Deck lists the shape rule LAST; the scheduler must run it first.
        rules = [
            layer(1).width().greater_than(10).named("W"),
            layer(1).polygons().is_rectilinear().named("SHAPE"),
        ]
        engine = Engine(mode="sequential")
        report, analysis = engine.check_with_task_graph(layout, rules=rules)
        # Report preserves deck order...
        assert [r.rule.name for r in report.results] == ["W", "SHAPE"]
        # ...while the task graph carries the dependency edge.
        assert analysis.tasks and {t.name for t in analysis.tasks} == {"W", "SHAPE"}
        graph_deps = {t.name: tuple(t.depends_on) for t in analysis.tasks}
        assert graph_deps["W"] == ("SHAPE",)

    def test_plain_check_matches_task_graph_check(self):
        layout = two_layer_layout(22)
        rules = all_kind_rules()
        a = Engine(mode="sequential").check(layout, rules=rules)
        b, _ = Engine(mode="sequential").check_with_task_graph(layout, rules=rules)
        for ra, rb in zip(a.results, b.results):
            assert ra.violations == rb.violations, ra.rule.name


class TestCanonicalOrder:
    def test_report_violations_sorted_canonically(self):
        from repro.checks.base import violation_sort_key

        layout = two_layer_layout(31)
        report = Engine(mode="sequential").check(layout, rules=all_kind_rules())
        for result in report.results:
            keys = [violation_sort_key(v) for v in result.violations]
            assert keys == sorted(keys), result.rule.name
            assert len(set(result.violations)) == len(result.violations)

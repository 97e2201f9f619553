"""Process-parallel backend: equivalence, determinism, transport, lifecycle.

The tentpole property: the multiprocess backend must report the *same
canonical violation list* as the sequential checker and the in-process
fused backend, for every rule kind, at every worker count — shard
scheduling and pool nondeterminism must be invisible in the report.
"""

import multiprocessing
import random
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    Engine,
    EngineOptions,
    MultiprocessBackend,
    ParallelBackend,
    compile_plan,
    make_backend,
    parallel,
)
from repro.core.rules import layer, polygons
from repro.geometry import Polygon, Transform
from repro.gpu import shmem
from repro.gpu.shmem import INLINE_THRESHOLD, ShmArena
from repro.layout import CellReference, Layout
from repro.util.profile import PhaseProfile
from repro.workloads import asap7, random_hierarchical_layout


def random_via_layout(seed: int, *, kinds: int = 3, instances: int = 30) -> Layout:
    """Random hierarchical metal (layer 1) + via (layer 2) layout."""
    rng = random.Random(seed)
    layout = Layout(f"mp-vias-{seed}")
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


def _narrow(polygon):
    """Module-level predicate: picklable, so it ships to the workers."""
    return polygon.mbr.width <= 400


def _boom(polygon):
    raise RuntimeError("boom in worker")


#: One rule of every kind the engine executes, on the metal+via layout.
def every_kind_deck():
    return [
        polygons().is_rectilinear().named("RECT"),
        layer(1).polygons().ensures(_narrow).named("ENS"),
        layer(1).width().greater_than(8).named("W"),
        layer(1).area().greater_than(400).named("A"),
        layer(1).spacing().greater_than(7).named("S"),
        layer(1).corner_spacing().greater_than(6).named("CS"),
        layer(1).same_mask_spacing().greater_than(9).named("DP"),
        layer(2).enclosure(layer(1)).greater_than(3).named("ENC"),
        layer(2).overlap(layer(1)).greater_than(10).named("OVL"),
    ]


def run(layout, rules, *, jobs, **kw):
    options = EngineOptions(mode="multiproc", jobs=jobs, **kw)
    with Engine(options=options) as engine:
        return engine.check(layout, rules=rules)


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(2))
    def test_every_rule_kind(self, seed):
        layout = random_via_layout(200 + seed)
        deck = every_kind_deck()
        reference = Engine(mode="sequential").check(layout, rules=deck)
        multiproc = run(layout, deck, jobs=2)
        for ref, got in zip(reference.results, multiproc.results):
            assert Counter(got.violations) == Counter(ref.violations), (
                f"multiproc disagrees on {ref.rule.name}"
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_spacing_random_hierarchical(self, seed):
        layout = random_hierarchical_layout(instances=40, seed=120 + seed)
        rule = layer(1).spacing().greater_than(7)
        reference = Engine(mode="sequential").check(layout, rules=[rule])
        multiproc = run(layout, [rule], jobs=3)
        assert Counter(multiproc.results[0].violations) == Counter(
            reference.results[0].violations
        )

    def test_full_deck_uart_matches_simulated_gpu(self, uart_layout):
        deck = asap7.full_deck()
        gpu = Engine(mode="parallel").check(uart_layout, rules=deck)
        multiproc = run(uart_layout, deck, jobs=2)
        for ref, got in zip(gpu.results, multiproc.results):
            assert got.violations == ref.violations, ref.rule.name

    def test_lambda_predicate_runs_inline(self):
        # A lambda cannot cross the process boundary; the pickle probe must
        # route it to the in-process backend, not crash the pool.
        layout = random_via_layout(42)
        deck = [
            layer(1).polygons().ensures(lambda p: p.mbr.width <= 400).named("L"),
            layer(1).spacing().greater_than(7).named("S"),
        ]
        reference = Engine(mode="sequential").check(layout, rules=deck)
        multiproc = run(layout, deck, jobs=2)
        for ref, got in zip(reference.results, multiproc.results):
            assert Counter(got.violations) == Counter(ref.violations)


class TestDeterminism:
    def test_reports_identical_across_worker_counts(self):
        layout = random_via_layout(7, instances=40)
        deck = every_kind_deck()
        baseline = run(layout, deck, jobs=1).to_csv()
        for jobs in (2, 4):
            assert run(layout, deck, jobs=jobs).to_csv() == baseline, jobs

    def test_repeated_runs_identical(self):
        layout = random_hierarchical_layout(instances=30, seed=9)
        deck = [layer(1).spacing().greater_than(7)]
        first = run(layout, deck, jobs=2)
        second = run(layout, deck, jobs=2)
        # Equal as plain lists: the canonical sort makes shard order moot.
        assert first.results[0].violations == second.results[0].violations

    def test_violation_lists_equal_not_just_multisets(self):
        layout = random_hierarchical_layout(instances=40, seed=13)
        deck = [layer(1).spacing().greater_than(7)]
        seq = Engine(mode="sequential").check(layout, rules=deck)
        mp = run(layout, deck, jobs=4)
        assert mp.results[0].violations == seq.results[0].violations


class TestWorkerLifecycle:
    def test_raising_rule_propagates_and_pool_shuts_down(self):
        layout = random_via_layout(3, instances=5)
        deck = [layer(1).polygons().ensures(_boom).named("BOOM")]
        with Engine(options=EngineOptions(mode="multiproc", jobs=2)) as engine:
            with pytest.raises(RuntimeError, match="boom in worker"):
                engine.check(layout, rules=deck)
        # Closing the engine must leave no worker processes behind.
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self):
        layout = random_via_layout(4, instances=5)
        plan = compile_plan(
            layout,
            [layer(1).spacing().greater_than(7)],
            EngineOptions(mode="multiproc", jobs=2),
        )
        backend = make_backend(plan)
        assert isinstance(backend, MultiprocessBackend)
        backend.run(plan.compiled[0].rule)
        backend.close()
        backend.close()
        for child in multiprocessing.active_children():
            child.join(timeout=10)
        assert multiprocessing.active_children() == []

    def test_jobs_one_never_starts_a_pool(self):
        layout = random_via_layout(5, instances=5)
        plan = compile_plan(
            layout,
            [layer(1).spacing().greater_than(7)],
            EngineOptions(mode="multiproc", jobs=1),
        )
        backend = make_backend(plan)
        backend.prefetch()
        backend.run(plan.compiled[0].rule)
        assert backend._pool is None
        backend.close()

    def test_spawn_start_method(self):
        layout = random_via_layout(6, instances=8)
        deck = [layer(1).spacing().greater_than(7)]
        reference = Engine(mode="sequential").check(layout, rules=deck)
        spawned = run(layout, deck, jobs=2, mp_start_method="spawn")
        assert spawned.results[0].violations == reference.results[0].violations


def _rectilinear_via_layout(seed: int) -> Layout:
    """The metal+via layout plus a few L-shaped metals: those rows take the
    exact host path instead of the fused rectangle launch."""
    layout = random_via_layout(seed)
    bent = layout.new_cell("bent")
    bent.add_polygon(
        1, Polygon([(0, 0), (60, 0), (60, 20), (20, 20), (20, 60), (0, 60)])
    )
    bent.add_polygon(2, Polygon.from_rect_coords(2, 2, 6, 6))
    for k in range(3):
        layout.cell("top").add_reference(
            CellReference("bent", Transform(dx=900 * k, dy=5000 + 700 * k))
        )
    return layout


ROW_TASK_CASES = {
    "spacing": (
        lambda: random_hierarchical_layout(instances=40, seed=0),
        layer(1).spacing().greater_than(7),
    ),
    "corner": (
        lambda: random_hierarchical_layout(instances=40, seed=65),
        layer(1).corner_spacing().greater_than(6),
    ),
    "enclosure": (
        lambda: _rectilinear_via_layout(5),
        layer(2).enclosure(layer(1)).greater_than(3),
    ),
}


class TestRowShardTask:
    """Parent and workers run one row task: splitting the rows across shard
    tasks changes neither the violations nor which executor each row took."""

    # 24 sits between the row sizes of the spacing layout: both lanes launch.
    @pytest.mark.parametrize(
        "threshold", [0, 24, parallel.BRUTE_FORCE_THRESHOLD, 10 ** 9]
    )
    @pytest.mark.parametrize("kind", sorted(ROW_TASK_CASES))
    def test_two_way_row_splits_match_the_unsplit_run(self, kind, threshold, monkeypatch):
        monkeypatch.setattr(parallel, "BRUTE_FORCE_THRESHOLD", threshold)
        build, rule = ROW_TASK_CASES[kind]
        layout = build()
        options = EngineOptions(mode="parallel", use_cache=False)
        whole = ParallelBackend(compile_plan(layout, [rule], options))
        expected = Counter(whole.run(rule))
        expected_stats = whole.stats()
        assert expected and expected_stats["fused_segments"] >= 2
        if kind == "spacing" and threshold == 24:
            assert expected_stats["kernels_bruteforce"] > 0
            assert expected_stats["kernels_sweepline"] > 0

        backend = MultiprocessBackend(
            compile_plan(layout, [rule], EngineOptions(
                mode="multiproc", jobs=2, use_cache=False
            ))
        )
        local = backend._local_backend()
        profile = PhaseProfile()
        work = local.row_work(rule, profile)
        host = Counter(local.run_host_rows(rule, work, profile))
        assert bool(host) == (kind == "enclosure")
        rows = np.flatnonzero(work.weights).tolist()
        rng = random.Random(threshold)
        for _ in range(4):
            rng.shuffle(rows)
            cut = rng.randint(1, len(rows) - 1)
            arena = ShmArena()
            tasks = backend._shard_tasks(
                rule, work.buffers, [sorted(rows[:cut]), sorted(rows[cut:])], arena
            )
            arena.seal()
            try:
                results = [task.execute() for task in tasks]
            finally:
                arena.dispose()
            found = Counter(v for violations, _, _ in results for v in violations)
            assert found + host == expected
            for key in ("kernels_bruteforce", "kernels_sweepline", "fused_segments"):
                assert sum(stats[key] for _, stats, _ in results) == expected_stats[key], key
        backend.close()

    def test_shard_task_pickles_without_the_predicate(self):
        """Only numbers ship: a stray lambda on a row-kind rule stays home."""
        import pickle

        from repro.core.rules import Rule, RuleKind

        layout = random_hierarchical_layout(instances=20, seed=6)
        rule = Rule(RuleKind.SPACING, 1, 7, predicate=lambda polygon: True)
        backend = MultiprocessBackend(
            compile_plan(layout, [rule], EngineOptions(mode="multiproc", jobs=2))
        )
        work = backend._local_backend().row_work(rule, PhaseProfile())
        rows = np.flatnonzero(work.weights).tolist()
        arena = ShmArena()
        (task,) = backend._shard_tasks(rule, work.buffers, [rows], arena)
        arena.seal()
        try:
            clone = pickle.loads(pickle.dumps(task))
            assert Counter(clone.execute()[0]) == Counter(
                Engine(mode="sequential").check(layout, rules=[rule]).results[0].violations
            )
        finally:
            arena.dispose()
            backend.close()


class TestStats:
    def test_mp_counters_exposed(self, uart_layout):
        deck = [asap7.spacing_rule(asap7.M3), asap7.width_rule(asap7.M2)]
        report = run(uart_layout, deck, jobs=2)
        stats = report.results[-1].stats
        assert stats["mp_jobs"] == 2
        assert stats["mp_shard_tasks"] > 0  # M3 spacing rode the row shards
        assert stats["mp_rule_tasks"] > 0  # width rode a rule task
        assert "mp_shm_bytes" in stats

    def test_shared_memory_carries_large_buffers(self):
        # Big enough that the packed edge arrays clear the inline threshold.
        layout = random_hierarchical_layout(instances=120, seed=2)
        deck = [layer(1).spacing().greater_than(7)]
        report = run(layout, deck, jobs=2)
        reference = Engine(mode="sequential").check(layout, rules=deck)
        assert report.results[0].violations == reference.results[0].violations
        assert report.results[0].stats["mp_shm_bytes"] > 0

    def test_inline_transport_when_shm_disabled(self, uart_layout, monkeypatch):
        monkeypatch.setattr(shmem, "shm_enabled", lambda: False)
        deck = [asap7.spacing_rule(asap7.M2)]
        report = run(uart_layout, deck, jobs=2)
        reference = Engine(mode="sequential").check(uart_layout, rules=deck)
        assert report.results[0].violations == reference.results[0].violations
        assert report.results[0].stats["mp_shm_bytes"] == 0


class TestOptions:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            EngineOptions(jobs=0)

    def test_bad_start_method_rejected(self):
        with pytest.raises(ValueError, match="mp_start_method"):
            EngineOptions(mp_start_method="warp")

    def test_multiproc_mode_registered(self):
        layout = random_via_layout(8, instances=3)
        plan = compile_plan(
            layout,
            [layer(1).width().greater_than(8)],
            EngineOptions(mode="multiproc", jobs=2),
        )
        assert plan.mode == "multiproc"
        backend = make_backend(plan)
        assert isinstance(backend, MultiprocessBackend)
        backend.close()


class TestShmArena:
    def test_round_trip(self):
        arena = ShmArena()
        big = np.arange(4096, dtype=np.int64)
        small = np.array([1, 2, 3], dtype=np.int32)
        matrix = np.arange(600, dtype=np.int64).reshape(150, 4)
        refs = [arena.stage(big), arena.stage(small), arena.stage(matrix)]
        arena.seal()
        try:
            for ref, original in zip(refs, (big, small, matrix)):
                resolved = ref.resolve()
                np.testing.assert_array_equal(resolved, original)
                assert not resolved.flags.writeable
                del resolved  # views must die before the block is unmapped
        finally:
            arena.dispose()
        from repro.gpu.shmem import release_attachments

        release_attachments()

    def test_small_arrays_inline(self):
        arena = ShmArena()
        ref = arena.stage(np.arange(4, dtype=np.int64))  # 32 bytes < threshold
        assert ref.block is None and ref.data is not None
        assert arena.nbytes == 0
        arena.seal()
        arena.dispose()

    def test_no_shared_memory_inlines_everything(self, monkeypatch):
        monkeypatch.setattr(shmem, "shm_enabled", lambda: False)
        arena = ShmArena()
        big = np.arange(4096, dtype=np.int64)
        assert big.nbytes >= INLINE_THRESHOLD
        ref = arena.stage(big)
        assert ref.block is None and ref.data is not None
        np.testing.assert_array_equal(ref.resolve(), big)
        arena.seal()
        arena.dispose()

    def test_stage_after_seal_rejected(self):
        arena = ShmArena()
        arena.seal()
        with pytest.raises(RuntimeError, match="sealed"):
            arena.stage(np.zeros(1))
        arena.dispose()

    def test_refs_pickle_small(self):
        import pickle

        arena = ShmArena()
        ref = arena.stage(np.arange(100_000, dtype=np.int64))
        arena.seal()
        try:
            # The point of the arena: the descriptor is tiny vs. the data.
            assert len(pickle.dumps(ref)) < 1024
            resolved = ref.resolve()
            np.testing.assert_array_equal(resolved, np.arange(100_000, dtype=np.int64))
            del resolved  # views must die before the block is unmapped
        finally:
            arena.dispose()
            from repro.gpu.shmem import release_attachments

            release_attachments()


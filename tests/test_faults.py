"""Fault injection and multiprocess recovery: the check always completes.

The contract under test: whatever faults fire — workers raising, hanging,
or dying, shared-memory attaches failing, pack-store entries rotting on
disk — every check completes and the report is byte-identical to the
fault-free run; only the ``mp_retries`` / ``mp_timeouts`` /
``mp_inline_fallbacks`` / ``mp_degraded`` / ``cache_corrupt`` counters
reveal that recovery happened.
"""

import os

import numpy as np
import pytest

from repro.core import (
    Engine,
    EngineOptions,
    PackStore,
    ReportCache,
    compile_plan,
    make_backend,
)
from repro.core.results import CheckResult
from repro.core.rules import layer
from repro.util import faults
from repro.util.faults import FaultPlan, FaultSpecError, InjectedFault

from .test_multiproc import every_kind_deck, random_via_layout, two_row_spacing_case


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """No fault plan leaks into or out of any test in this module."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.clear()
    yield
    faults.clear()


def small_deck():
    """One in-process rule plus both row-sharded shapes (pair + enclosure)."""
    return [
        layer(1).width().greater_than(8).named("W"),
        layer(1).spacing().greater_than(7).named("S"),
        layer(2).enclosure(layer(1)).greater_than(3).named("ENC"),
    ]


def run(layout, rules, *, jobs, **kw):
    options = EngineOptions(mode="multiproc", jobs=jobs, **kw)
    return Engine(options=options).check(layout, rules=rules)


# ---------------------------------------------------------------------------
# Spec parsing and the plan mechanics (no processes involved)
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_empty_specs_mean_no_faults(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse(" ; ") is None

    def test_single_site_defaults_to_one_shot(self):
        plan = FaultPlan.parse("worker_raise")
        assert [d.site for d in plan.directives] == ["worker_raise"]
        assert plan.directives[0].times == 1

    def test_multi_clause_spec_with_parameters(self):
        plan = FaultPlan.parse(
            "worker_hang:rule=M3.S,times=2,skip=1;packstore_corrupt:times=3"
        )
        hang, corrupt = plan.directives
        assert (hang.site, hang.rule, hang.times, hang.skip) == (
            "worker_hang", "M3.S", 2, 1
        )
        assert (corrupt.site, corrupt.times) == ("packstore_corrupt", 3)

    @pytest.mark.parametrize(
        "spec",
        [
            "explode",                      # unknown site
            "worker_raise:count=1",         # unknown parameter
            "worker_raise:times",           # missing value
            "worker_raise:times=soon",      # non-integer value
            "shm_attach_fail:p=1.5",        # probability out of range
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_spec_error_is_a_value_error(self):
        assert issubclass(FaultSpecError, ValueError)

    def test_times_budget_bounds_firing(self):
        plan = FaultPlan.parse("worker_raise:times=2")
        fired = [plan.should_fire(faults.WORKER_RAISE) for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_skip_lets_early_opportunities_pass(self):
        plan = FaultPlan.parse("worker_raise:skip=2,times=1")
        fired = [plan.should_fire(faults.WORKER_RAISE) for _ in range(4)]
        assert fired == [False, False, True, False]

    def test_rule_filter_only_matches_that_rule(self):
        plan = FaultPlan.parse("worker_hang:rule=S")
        assert not plan.should_fire(faults.WORKER_HANG, "W")
        assert plan.should_fire(faults.WORKER_HANG, "S")
        assert plan.worker_fault("S") is None  # budget consumed
        assert plan.worker_fault("W") is None

    def test_worker_fault_maps_site_to_action(self):
        assert FaultPlan.parse("worker_raise").worker_fault("X") == "raise"
        assert FaultPlan.parse("worker_hang").worker_fault("X") == "hang"
        assert FaultPlan.parse("worker_die").worker_fault("X") == "die"

    def test_probability_draws_are_seeded_and_repeatable(self):
        spec = "worker_raise:p=0.5,seed=7,times=100"

        def draws():
            directive = FaultPlan.parse(spec).directives[0]
            return [directive.consult(None) for _ in range(64)]

        first, second = draws(), draws()
        assert first == second
        assert any(first) and not all(first)

    def test_sites_are_independent(self):
        plan = FaultPlan.parse("worker_raise;packstore_corrupt")
        assert plan.should_fire(faults.PACKSTORE_CORRUPT)
        assert plan.should_fire(faults.WORKER_RAISE)
        assert not plan.should_fire(faults.SHM_ATTACH_FAIL)


class TestInstallation:
    def test_install_is_idempotent_by_spec(self):
        faults.install("worker_raise:times=1")
        assert faults.should_fire(faults.WORKER_RAISE)
        # Re-installing the same spec must keep the consumed budget (a
        # worker re-resolving its options must not re-arm fired faults).
        plan = faults.install("worker_raise:times=1")
        assert plan is faults.active()
        assert not faults.should_fire(faults.WORKER_RAISE)

    def test_install_token_scopes_idempotence_to_one_check(self):
        faults.install("worker_raise:times=1", token=1)
        assert faults.should_fire(faults.WORKER_RAISE)
        assert not faults.should_fire(faults.WORKER_RAISE)
        # Same spec + same token (a retry within the check): budget stays
        # consumed.
        faults.install("worker_raise:times=1", token=1)
        assert not faults.should_fire(faults.WORKER_RAISE)
        # A tokenless re-install (e.g. compile_plan re-resolving options)
        # never invalidates the live plan either.
        faults.install("worker_raise:times=1")
        assert not faults.should_fire(faults.WORKER_RAISE)
        # A new token — the next check's epoch on a warm pool — re-arms
        # the budget from scratch, matching cold-path fresh workers.
        faults.install("worker_raise:times=1", token=2)
        assert faults.should_fire(faults.WORKER_RAISE)

    def test_installing_a_new_spec_replaces_the_plan(self):
        faults.install("worker_raise:times=1")
        faults.install("worker_hang:times=1")
        assert not faults.should_fire(faults.WORKER_RAISE)
        assert faults.should_fire(faults.WORKER_HANG)

    def test_install_none_clears(self):
        faults.install("worker_raise")
        faults.install(None)
        assert faults.active() is None

    def test_suppressed_blocks_firing_without_consuming(self):
        faults.install("worker_raise:times=1")
        with faults.suppressed():
            assert faults.is_suppressed()
            assert not faults.should_fire(faults.WORKER_RAISE)
        assert faults.should_fire(faults.WORKER_RAISE)

    def test_options_beat_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker_hang")
        opts = EngineOptions(faults="worker_raise")
        assert faults.resolve_spec(opts) == "worker_raise"
        assert faults.resolve_spec(EngineOptions()) == "worker_hang"

    def test_act_raise_throws_injected_fault(self):
        with pytest.raises(InjectedFault):
            faults.act("raise")
        with pytest.raises(ValueError, match="unknown fault action"):
            faults.act("warp")


class TestOptionsValidation:
    def test_malformed_fault_spec_fails_at_options_creation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            EngineOptions(faults="explode:times=1")

    @pytest.mark.parametrize("timeout", [0, -1.5])
    def test_non_positive_task_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="task_timeout"):
            EngineOptions(task_timeout=timeout)

    def test_none_task_timeout_means_wait_forever(self):
        assert EngineOptions(task_timeout=None).task_timeout is None

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            EngineOptions(max_retries=-1)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_non_positive_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="positive integer"):
            EngineOptions(jobs=jobs)


# ---------------------------------------------------------------------------
# End-to-end recovery: the acceptance fault matrix
# ---------------------------------------------------------------------------

#: (spec, extra EngineOptions, stats counter that must show the recovery).
FAULT_MATRIX = [
    ("worker_raise:times=2", {}, "mp_retries"),
    ("worker_hang:times=1", {"task_timeout": 2.0}, "mp_timeouts"),
    ("worker_die:times=1", {"task_timeout": 2.0}, "mp_timeouts"),
    ("shm_attach_fail:times=1", {}, "mp_retries"),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize(
        "spec,extra,counter", FAULT_MATRIX, ids=[m[0] for m in FAULT_MATRIX]
    )
    def test_faulted_report_is_byte_identical(self, spec, extra, counter, jobs):
        layout = random_via_layout(310, instances=60)
        deck = small_deck()
        baseline = Engine(mode="sequential").check(layout, rules=deck)
        faults.clear()
        report = run(layout, deck, jobs=jobs, faults=spec, **extra)
        assert report.to_csv() == baseline.to_csv()
        stats = report.results[-1].stats
        if jobs > 1:
            assert stats["mp_shard_tasks"] > 0  # the pool really engaged
            assert stats[counter] >= 1, f"no recovery recorded in {counter}"
        else:
            # jobs == 1 runs in-process: nothing to recover from.
            assert stats.get(counter, 0) == 0

    def test_every_rule_kind_survives_worker_crashes(self):
        layout = random_via_layout(204)
        deck = every_kind_deck()
        baseline = Engine(mode="sequential").check(layout, rules=deck)
        faults.clear()
        report = run(layout, deck, jobs=2, faults="worker_raise:times=3")
        assert report.to_csv() == baseline.to_csv()
        assert report.results[-1].stats["mp_retries"] >= 1

    def test_targeted_shard_fault_recovers(self):
        # rule= scopes the fault to the spacing rule's shard tasks.
        layout = random_via_layout(311, instances=60)
        deck = small_deck()
        baseline = Engine(mode="sequential").check(layout, rules=deck)
        faults.clear()
        report = run(layout, deck, jobs=2, faults="worker_raise:rule=S,times=1")
        assert report.to_csv() == baseline.to_csv()
        assert report.results[-1].stats["mp_retries"] >= 1


class TestRecoveryLadder:
    def test_hung_worker_times_out_retries_then_runs_inline(self, status_quo_routing):
        # Every submission hangs: one timeout per attempt, retries exhaust,
        # and each shard completes in-process — the full recovery ladder.
        layout, deck = two_row_spacing_case()
        baseline = Engine(mode="sequential").check(layout, rules=deck)
        assert baseline.total_violations
        faults.clear()
        report = run(
            layout, deck, jobs=2,
            faults="worker_hang:times=10",
            task_timeout=0.4, max_retries=1,
        )
        assert report.to_csv() == baseline.to_csv()
        stats = report.results[-1].stats
        assert stats["mp_shard_tasks"] == 2
        assert stats["mp_timeouts"] == 4  # per shard: first attempt + one retry
        assert stats["mp_retries"] == 2
        assert stats["mp_inline_fallbacks"] == 2

    def test_every_shard_climbs_the_ladder_when_shards_outnumber_slots(
        self, status_quo_routing
    ):
        # Eight shards, two hung workers, four fair-dispatch slots: the
        # hung tasks must give their slots back when their waiters time
        # out, and each retry must reach the pool at once, or a retry (and
        # every shard queued behind it) waits forever.
        layout = random_via_layout(101, instances=60)
        deck = [layer(1).spacing().greater_than(40).named("S")]
        baseline = Engine(mode="sequential").check(layout, rules=deck)
        assert baseline.total_violations
        faults.clear()
        report = run(
            layout, deck, jobs=2,
            faults="worker_hang:times=100",
            task_timeout=0.25, max_retries=1,
        )
        assert report.to_csv() == baseline.to_csv()
        stats = report.results[-1].stats
        assert stats["mp_shard_tasks"] == 8
        assert stats["mp_timeouts"] == 16  # per shard: first attempt + one retry
        assert stats["mp_retries"] == 8
        assert stats["mp_inline_fallbacks"] == 8

    def test_killed_worker_loses_the_task_but_not_the_check(self):
        # SIGKILL mid-task: the pool repopulates the worker, the in-flight
        # result is gone, and the per-task timeout is what detects that.
        layout = random_via_layout(102, instances=60)
        deck = small_deck()
        baseline = Engine(mode="sequential").check(layout, rules=deck)
        faults.clear()
        report = run(
            layout, deck, jobs=2,
            faults="worker_die:times=1", task_timeout=2.0,
        )
        assert report.to_csv() == baseline.to_csv()
        stats = report.results[-1].stats
        assert stats["mp_timeouts"] >= 1
        assert stats["mp_retries"] >= 1

    def test_dead_pool_degrades_to_the_in_process_backend(self, monkeypatch):
        # When the pool cannot be (re)built at all, the backend must finish
        # the whole plan in-process and say so in mp_degraded.
        layout = random_via_layout(103, instances=60)
        deck = small_deck()
        reference = Engine(mode="sequential").check(layout, rules=deck)
        plan = compile_plan(
            layout, deck, EngineOptions(mode="multiproc", jobs=2)
        )
        backend = make_backend(plan)

        def no_pool():
            raise OSError("injected pool death")

        monkeypatch.setattr(backend, "_ensure_pool", no_pool)
        try:
            for compiled, ref in zip(plan.compiled, reference.results):
                got = CheckResult(
                    rule=compiled.rule,
                    violations=backend.run(compiled.rule),
                    seconds=0.0,
                )
                assert got.violations == ref.violations, compiled.rule.name
            assert backend.stats()["mp_degraded"] == 1
        finally:
            backend.close()


class TestPackStoreCorruption:
    def test_corrupt_entry_heals_and_counts(self, tmp_path):
        layout = random_via_layout(104, instances=60)
        deck = small_deck()
        options = lambda: EngineOptions(  # noqa: E731
            mode="parallel",
            cache_dir=str(tmp_path),
            faults="packstore_corrupt:times=1",
        )
        # The stored report would answer a repeat before the pack store —
        # where the fault fires — is read, so it is dropped between runs.
        reports = ReportCache(PackStore(str(tmp_path)))
        cold = Engine(options=options()).check(layout, rules=deck)
        reports.clear()
        # The cold run sees no existing entries, so the fault budget is
        # still live; the warm run's first store read hits it.
        warm = Engine(options=options()).check(layout, rules=deck)
        reports.clear()
        assert warm.to_csv() == cold.to_csv()
        assert warm.results[-1].stats["cache_corrupt"] >= 1
        # The corrupted entry was dropped and rewritten: a third run (no
        # faults) is clean.
        healed = Engine(
            options=EngineOptions(mode="parallel", cache_dir=str(tmp_path))
        ).check(layout, rules=deck)
        assert healed.to_csv() == cold.to_csv()
        assert healed.results[-1].stats["cache_corrupt"] == 0

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_corruption_under_the_multiprocess_backend(self, tmp_path, jobs):
        layout = random_via_layout(105, instances=60)
        deck = small_deck()
        baseline = Engine(mode="sequential").check(layout, rules=deck)
        faults.clear()
        cold = run(layout, deck, jobs=jobs, cache_dir=str(tmp_path))
        assert cold.to_csv() == baseline.to_csv()
        faults.clear()
        ReportCache(PackStore(str(tmp_path))).clear()
        warm = run(
            layout, deck, jobs=jobs,
            cache_dir=str(tmp_path), faults="packstore_corrupt:times=1",
        )
        assert warm.to_csv() == baseline.to_csv()


# ---------------------------------------------------------------------------
# Resource lifecycle (the shm-leak and double-persist regressions)
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_close_unlinks_live_arenas(self, tmp_path):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        layout = random_via_layout(106)
        plan = compile_plan(
            layout, small_deck(), EngineOptions(mode="multiproc", jobs=2)
        )
        backend = make_backend(plan)
        arena = backend._new_arena()
        ref = arena.stage(np.arange(4096, dtype=np.int64))
        arena.seal()
        assert ref.block, "array should have landed in shared memory"
        block_path = os.path.join("/dev/shm", ref.block)
        assert os.path.exists(block_path)
        # close() must unlink arenas that were still live when the pool
        # went down — terminate() alone would leak the segment for good.
        backend.close()
        assert not os.path.exists(block_path)
        backend.close()  # idempotent

    def test_second_close_does_not_repersist_counters(self, tmp_path):
        layout = random_via_layout(107, instances=60)
        deck = [layer(1).spacing().greater_than(7).named("S")]
        engine = Engine(
            options=EngineOptions(
                mode="multiproc", jobs=2, cache_dir=str(tmp_path)
            )
        )
        engine.check(layout, rules=deck)  # closes the backend on the way out
        counters_file = tmp_path / "counters.json"
        snapshot = counters_file.read_text()
        backend = engine.last_checker
        # Any counter movement after the close must stay unpersisted.
        backend.plan.caches.store.misses += 5
        backend.close()
        assert counters_file.read_text() == snapshot

    def test_teardown_path_skips_persistence(self, tmp_path):
        layout = random_via_layout(108)
        plan = compile_plan(
            layout,
            small_deck(),
            EngineOptions(mode="multiproc", jobs=2, cache_dir=str(tmp_path)),
        )
        backend = make_backend(plan)
        plan.caches.store.misses += 1
        backend._close(persist=False)  # the interpreter-teardown path
        assert not (tmp_path / "counters.json").exists()

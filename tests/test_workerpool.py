"""Shared worker pools: holder counting, reuse across checks, plan spooling,
fault recycling.

The tentpole property: the second ``Engine.check()`` of the same deck on
one engine must reuse the live worker processes (zero new PIDs), ship no
plan payload (``mp_plan_compiles == 0``), skip the pickle probes
(``mp_pickle_probes == 0``), and still produce a byte-identical report; a
pool lives until its last holder lets go, so no engine closes the workers
of another; and the recovery ladder must keep working on a recycled pool.
"""

import multiprocessing
import random

import pytest

from repro.core import Engine, EngineOptions
from repro.core import costmodel, multiproc, workerpool
from repro.core.rules import layer
from repro.core.workerpool import WorkerPool
from repro.geometry import Polygon, Transform
from repro.layout import CellReference, Layout
from repro.util import faults

from .test_multiproc import random_via_layout


def via_layout(seed: int, *, kinds: int = 3, instances: int = 40) -> Layout:
    rng = random.Random(seed)
    layout = Layout(f"wp-vias-{seed}")
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
                ),
            )
        )
    layout.set_top("top")
    return layout


def _narrow(polygon):
    """Module-level predicate: picklable, so the probe has work to do."""
    return polygon.mbr.width <= 400


class _WidthUnder:
    """Callable-instance predicate: one qualname, per-instance state.

    The standard picklable form for ``ensures`` rules — and exactly the
    shape that must not collide in the plan digest: ``_WidthUnder(0)``
    and ``_WidthUnder(10_000)`` share a qualname but ship different
    pickles.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __call__(self, polygon) -> bool:
        return polygon.mbr.width <= self.limit


def deck():
    return [
        layer(1).polygons().ensures(_narrow).named("ENS"),
        layer(1).spacing().greater_than(7).named("S"),
        layer(1).width().greater_than(8).named("W"),
        layer(2).enclosure(layer(1)).greater_than(3).named("ENC"),
    ]


@pytest.fixture(autouse=True)
def _isolate():
    """Fresh pool registry, probe cache, and cost models around every test."""
    workerpool.shutdown_pools()
    costmodel.reset_models()
    multiproc._PROBE_CACHE.clear()
    faults.clear()
    yield
    workerpool.shutdown_pools()
    costmodel.reset_models()
    multiproc._PROBE_CACHE.clear()
    faults.clear()


def mp_options(**kw):
    kw.setdefault("mode", "multiproc")
    kw.setdefault("jobs", 2)
    return EngineOptions(**kw)


def registered(jobs):
    """The registry's pool for ``jobs`` (None once its last holder let go),
    looked up without taking a hold."""
    return workerpool._POOLS.get((jobs, workerpool._resolve_start_method(None)))


def assert_no_children():
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []


class TestWarmReuse:
    def test_second_check_reuses_workers_and_ships_nothing(self):
        layout = via_layout(501)
        rules = deck()
        engine = Engine(options=mp_options())
        try:
            first = engine.check(layout, rules=rules)
            pool = registered(2)
            pids = pool.worker_pids()
            generation = pool.generation
            assert pids, "the engine's hold must keep live workers"
            assert first.results[-1].stats["mp_plan_compiles"] == 1
            assert first.results[-1].stats["mp_pickle_probes"] >= 1

            second = engine.check(layout, rules=rules)
            assert second.to_csv() == first.to_csv()
            assert registered(2) is pool
            assert pool.worker_pids() == pids, "no new worker processes"
            assert pool.generation == generation
            stats = second.results[-1].stats
            assert stats["mp_plan_compiles"] == 0, "plan must not reship"
            assert stats["mp_pickle_probes"] == 0, "probe results memoized"
        finally:
            engine.close()
        assert registered(2) is None
        assert pool.closed and pool.worker_pids() == []

    def test_matches_sequential_reference(self):
        layout = via_layout(502)
        rules = deck()
        reference = Engine(mode="sequential").check(layout, rules=rules)
        with Engine(options=mp_options()) as engine:
            warm = engine.check(layout, rules=rules)
        for ref, got in zip(reference.results, warm.results):
            assert got.violations == ref.violations, ref.rule.name

    def test_stateful_predicates_do_not_collide_on_a_reused_pool(self):
        # Two consecutive checks whose decks differ only in a callable
        # instance's *state* must not share a plan digest — a collision
        # makes the warm pool silently run the previous check's pickled
        # predicate. cost_model=False keeps both checks on the pool (a
        # calibrated model would route the tiny rule inline and mask the
        # digest path).
        layout = via_layout(507)
        loose = [layer(1).polygons().ensures(_WidthUnder(10_000)).named("ENS")]
        strict = [layer(1).polygons().ensures(_WidthUnder(0)).named("ENS")]
        ref_loose = Engine(mode="sequential").check(layout, rules=loose)
        ref_strict = Engine(mode="sequential").check(layout, rules=strict)
        assert ref_loose.to_csv() != ref_strict.to_csv()
        with Engine(options=mp_options(cost_model=False)) as engine:
            first = engine.check(layout, rules=loose)
            second = engine.check(layout, rules=strict)
        assert first.to_csv() == ref_loose.to_csv()
        assert second.to_csv() == ref_strict.to_csv()

    def test_close_releases_every_pool_the_engine_used(self):
        # Checks under different option sets hold different registry
        # pools; close() must release all of them, not just the one the
        # engine's current options select.
        layout = via_layout(508, instances=10)
        rules = [layer(1).spacing().greater_than(7)]
        engine = Engine(options=mp_options(jobs=2))
        engine.check(layout, rules=rules)
        engine.options = mp_options(jobs=3)
        engine.check(layout, rules=rules)
        assert registered(2).worker_pids()
        assert registered(3).worker_pids()
        engine.close()
        assert registered(2) is None and registered(3) is None
        assert_no_children()

    def test_close_releases_the_shared_pool(self):
        layout = via_layout(503, instances=10)
        engine = Engine(options=mp_options())
        engine.check(layout, rules=[layer(1).spacing().greater_than(7)])
        assert registered(2).worker_pids()
        engine.close()
        assert_no_children()

    def test_closed_engine_leaves_no_children(self):
        layout = via_layout(504, instances=10)
        with Engine(options=mp_options()) as engine:
            engine.check(layout, rules=[layer(1).spacing().greater_than(7)])
            assert multiprocessing.active_children(), "held between checks"
        assert_no_children()


class TestSharedPoolHazard:
    def test_other_engines_and_rechecks_leave_a_held_pool_alone(self):
        # Engine A holds the pool between checks. Engine B (same options,
        # so the same pool) checks and closes, and a verified recheck runs
        # its throwaway cold-check engine: neither may close A's workers.
        # A's next check must land on the same processes, undegraded.
        layout = via_layout(511)
        rules = deck()
        options = mp_options(cost_model=False)
        with Engine(options=options) as a:
            first = a.check(layout, rules=rules)
            pool = registered(2)
            pids = pool.worker_pids()
            assert pids
            with Engine(options=options) as b:
                assert b.check(layout, rules=rules).to_csv() == first.to_csv()
            edited = via_layout(511)
            edited.cell("top").add_polygon(
                1, Polygon.from_rect_coords(5000, 5000, 5030, 5030)
            )
            a.recheck(layout, edited, rules=rules, cached=first, verify=True)
            again = a.check(layout, rules=rules)
            assert registered(2) is pool
            assert pool.worker_pids() == pids
            stats = again.results[-1].stats
            assert stats["mp_degraded"] == 0
            assert stats["mp_rule_tasks"] + stats["mp_shard_tasks"] > 0
            assert again.to_csv() == first.to_csv()
        assert registered(2) is None


class TestRecycledPoolFaults:
    def test_recovery_ladder_on_a_reused_pool(self):
        # Check 1 warms the pool; check 2 injects hangs into the recycled
        # workers and must still climb the full PR 5 ladder: timeout →
        # retry → inline fallback, with a byte-identical report.
        layout = via_layout(505)
        rules = [layer(1).width().greater_than(8).named("W")]
        baseline = Engine(mode="sequential").check(layout, rules=rules)
        warm_engine = Engine(options=mp_options())
        faulted = Engine(
            options=mp_options(
                faults="worker_hang:times=10",
                task_timeout=0.4,
                max_retries=1,
            )
        )
        clean = Engine(options=mp_options())
        try:
            first = warm_engine.check(layout, rules=rules)
            assert first.to_csv() == baseline.to_csv()
            pool = registered(2)
            assert pool.worker_pids(), "check 1 must leave the pool warm"
            report = faulted.check(layout, rules=rules)
            assert report.to_csv() == baseline.to_csv()
            stats = report.results[-1].stats
            assert stats["mp_timeouts"] == 2  # first attempt + one retry
            assert stats["mp_retries"] == 1
            assert stats["mp_inline_fallbacks"] == 1
            # The timed-out check recycled the shared pool's (wedged)
            # workers instead of handing them to the next check...
            assert registered(2) is pool
            assert pool.worker_pids() == []

            faults.clear()
            again = clean.check(layout, rules=rules)
            assert again.to_csv() == baseline.to_csv()
            # ...and the respawned generation re-warmed from the spool.
            assert again.results[-1].stats["mp_plan_compiles"] == 0
        finally:
            clean.close()
            faulted.close()
            warm_engine.close()

    def test_worker_site_budgets_rearm_each_check(self):
        # shm_attach_fail budgets are consumed *inside* the workers. Warm
        # workers outlive the check, so without a per-check install epoch
        # the second check would inherit the first one's spent budget and
        # inject nothing — unlike the cold path's fresh processes. Both
        # checks must show the recovery. (random_via_layout, not this
        # module's via_layout: the shards must be big enough to ride the
        # shared-memory transport, or no attach ever happens.)
        layout = random_via_layout(509, instances=60)
        rules = [layer(1).spacing().greater_than(7).named("S")]
        baseline = Engine(mode="sequential").check(layout, rules=rules)
        options = mp_options(
            cost_model=False, faults="shm_attach_fail:times=1"
        )
        with Engine(options=options) as engine:
            first = engine.check(layout, rules=rules)
            second = engine.check(layout, rules=rules)
        assert first.to_csv() == baseline.to_csv()
        assert second.to_csv() == baseline.to_csv()
        assert first.results[-1].stats["mp_retries"] >= 1
        assert second.results[-1].stats["mp_retries"] >= 1, (
            "warm workers must re-arm worker-side fault budgets per check"
        )

    def test_worker_crash_on_recycled_pool_recovers(self):
        layout = via_layout(506)
        rules = [layer(1).spacing().greater_than(7).named("S")]
        baseline = Engine(mode="sequential").check(layout, rules=rules)
        with Engine(options=mp_options(cost_model=False)) as warm_engine:
            warm_engine.check(layout, rules=rules)
            faults.clear()
            faulted = Engine(
                options=mp_options(
                    cost_model=False, faults="worker_raise:times=1"
                )
            )
            report = faulted.check(layout, rules=rules)
            assert report.to_csv() == baseline.to_csv()
            assert report.results[-1].stats["mp_retries"] >= 1


class TestWorkerPoolUnit:
    def test_ensure_plan_ships_once(self):
        pool = WorkerPool(1)
        try:
            calls = []

            def payload():
                calls.append(1)
                return b"deck-bytes"

            path, shipped = pool.ensure_plan("digest-a", payload)
            assert shipped and calls == [1]
            again, reshipped = pool.ensure_plan("digest-a", payload)
            assert again == path and not reshipped and calls == [1]
            with open(path, "rb") as handle:
                assert handle.read() == b"deck-bytes"
        finally:
            pool.close()

    def test_rebuild_keeps_spool_and_bumps_generation(self):
        pool = WorkerPool(1)
        try:
            pool.ensure()
            first_gen = pool.generation
            path, _ = pool.ensure_plan("digest-b", lambda: b"payload")
            pool.rebuild()
            import os

            assert os.path.exists(path), "rebuild must keep the spool"
            pool.ensure()
            assert pool.generation == first_gen + 1
            _, reshipped = pool.ensure_plan("digest-b", lambda: b"payload")
            assert not reshipped
        finally:
            pool.close()

    def test_close_is_terminal(self):
        pool = WorkerPool(1)
        path, _ = pool.ensure_plan("digest-c", lambda: b"payload")
        pool.close()
        import os

        assert not os.path.exists(path)
        with pytest.raises(RuntimeError, match="closed"):
            pool.ensure()
        pool.close()  # idempotent

    def test_holders_share_one_pool_until_the_last_release(self):
        first = workerpool.acquire(1)
        assert workerpool.acquire(1) is first
        first.release()
        assert not first.closed and registered(1) is first
        first.release()
        assert first.closed and registered(1) is None
        replacement = workerpool.acquire(1)
        assert replacement is not first
        replacement.release()

    def test_registry_replaces_closed_pools(self):
        first = workerpool.acquire(1)
        first.close()
        replacement = workerpool.acquire(1)
        assert replacement is not first and not replacement.closed
        replacement.release()
        assert replacement.closed

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WorkerPool(0)

    def test_dispatch_seconds_measures_on_request(self):
        pool = WorkerPool(1)
        try:
            assert pool.dispatch_seconds() is None  # never implicit
            pool.ensure()
            measured = pool.dispatch_seconds(measure=True)
            assert measured is not None and measured > 0
            assert pool.dispatch_seconds() == measured  # cached
        finally:
            pool.close()


def _sigterm_is_default():
    import signal

    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class TestTerminate:
    def test_workers_keep_default_sigterm_under_the_cli_handler(self):
        # Pool.terminate() stops workers with SIGTERM while holding their
        # task-queue lock. A forked worker that inherited the CLI's
        # SIGTERM-to-SystemExit handler could block on that lock instead of
        # dying, and the parent's join would wait forever.
        from repro.cli import _graceful_sigterm

        with _graceful_sigterm():
            pool = WorkerPool(1)
            try:
                assert pool.apply_async(_sigterm_is_default, requester="t").get(60)
            finally:
                pool.close()


def _nap(seconds):
    """Module-level task: picklable, sleeps, echoes its argument back."""
    import time as _time

    _time.sleep(seconds)
    return seconds


class TestFairDispatch:
    def test_round_robin_across_requesters(self):
        # One worker, in-flight cap 2. Requester A floods five tasks; B
        # submits one while A's batch is queued. Fair dispatch must feed
        # B's task to the pool before A's tail — under a plain FIFO, B
        # would wait behind the whole batch.
        pool = WorkerPool(1)
        try:
            results = [
                pool.apply_async(_nap, (0.8,), requester="A"),
                pool.apply_async(_nap, (0.8,), requester="A"),
                pool.apply_async(_nap, (0.0,), requester="A"),
                pool.apply_async(_nap, (0.0,), requester="A"),
                pool.apply_async(_nap, (0.0,), requester="B"),
            ]
            for result, expected in zip(results, (0.8, 0.8, 0.0, 0.0, 0.0)):
                assert result.get(60) == expected
            # A1, A2 dispatch on submission (cap 2); then the rotation
            # interleaves: A3, B1, A4 — never A3, A4, B1.
            assert list(pool.dispatch_log) == ["A", "A", "A", "B", "A"]
        finally:
            pool.close()

    def test_within_requester_order_is_preserved(self):
        pool = WorkerPool(2)
        try:
            results = [
                pool.apply_async(_nap, (i / 100.0,), requester="only")
                for i in (3, 2, 1, 0)
            ]
            values = [r.get(60) for r in results]
            assert values == [0.03, 0.02, 0.01, 0.0]
        finally:
            pool.close()

    def test_fair_timeout_excludes_queue_wait(self):
        # The task timeout meters a *worker* round trip. A fair-dispatched
        # task still queued behind other requesters has not reached a
        # worker, so its waiter must not time out — only once dispatched
        # does the clock start.
        from repro.core.workerpool import _FairResult

        proxy = _FairResult()
        outcome = []

        def waiter():
            try:
                proxy.get(timeout=0.3)
            except multiprocessing.TimeoutError:
                outcome.append("timeout")

        import threading

        thread = threading.Thread(target=waiter)
        thread.start()
        thread.join(0.8)
        assert thread.is_alive(), "queued: the timeout clock must not run"
        assert not outcome
        proxy._mark_dispatched()
        thread.join(10)
        assert outcome == ["timeout"]

    def test_rebuild_fails_dispatched_fair_tasks_fast(self):
        # Terminated workers never fire their callbacks; abandon() must
        # fail the in-flight proxies immediately (RuntimeError, not a
        # full task-timeout wait) so waiters drop into the retry ladder.
        pool = WorkerPool(1)
        try:
            proxy = pool.apply_async(_nap, (30.0,), requester="A")
            for _ in range(200):
                if pool.worker_pids():
                    break
                import time as _time

                _time.sleep(0.01)
            pool.rebuild()
            with pytest.raises(RuntimeError, match="rebuilt"):
                proxy.get(5)
        finally:
            pool.close()

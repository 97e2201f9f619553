"""Engine re-entrancy: concurrent checks through one engine are invisible.

The tentpole property of the concurrent-serving PR: two threads driving
*different* decks and layouts through ONE Engine (one shared warm worker
pool, one pack store, one cost model) must each produce a report
byte-identical to a solo run of the same check, with no cross-contaminated
stats — and the multiprocess recovery ladder must keep working while the
pool is shared.
"""

import threading

import pytest

from repro.core import Engine, EngineOptions
from repro.core import costmodel, multiproc, workerpool
from repro.core.engine import CheckContext
from repro.core.rules import layer
from repro.util import faults

from .test_multiproc import random_via_layout
from .test_workerpool import registered


@pytest.fixture(autouse=True)
def _isolate(monkeypatch):
    """Fresh pool registry, probe cache, and cost models around every test."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    workerpool.shutdown_pools()
    costmodel.reset_models()
    multiproc._PROBE_CACHE.clear()
    faults.clear()
    yield
    workerpool.shutdown_pools()
    costmodel.reset_models()
    multiproc._PROBE_CACHE.clear()
    faults.clear()


def metal_deck():
    return [
        layer(1).spacing().greater_than(7).named("S"),
        layer(1).width().greater_than(8).named("W"),
    ]


def via_deck():
    return [
        layer(2).enclosure(layer(1)).greater_than(3).named("ENC"),
        layer(2).area().greater_than(10).named("A"),
    ]


@pytest.fixture(scope="module")
def metal_layout():
    return random_via_layout(881, instances=20)


@pytest.fixture(scope="module")
def via_layout():
    return random_via_layout(882, instances=20)


@pytest.fixture(scope="module")
def metal_ref(metal_layout):
    return Engine(mode="sequential").check(metal_layout, rules=metal_deck())


@pytest.fixture(scope="module")
def via_ref(via_layout):
    return Engine(mode="sequential").check(via_layout, rules=via_deck())


def _concurrent_checks(engine, workloads, timeout=180):
    """Run every (layout, rules) pair through ``engine`` simultaneously.

    A barrier makes the overlap real — no thread enters the engine until
    all of them are poised to — and any worker exception fails the test
    rather than vanishing into a thread.
    """
    barrier = threading.Barrier(len(workloads))
    reports = [None] * len(workloads)
    errors = []

    def worker(index, layout, rules):
        try:
            barrier.wait(30)
            reports[index] = engine.check(layout, rules=rules)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i, layout, rules))
        for i, (layout, rules) in enumerate(workloads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    if errors:
        raise errors[0]
    assert all(t.is_alive() is False for t in threads), "check did not finish"
    assert all(report is not None for report in reports)
    return reports


def mp_options(**kw):
    kw.setdefault("mode", "multiproc")
    kw.setdefault("jobs", 2)
    return EngineOptions(**kw)


class TestSequentialReentrancy:
    def test_two_threads_one_engine_match_solo_runs(
        self, metal_layout, via_layout, metal_ref, via_ref
    ):
        with Engine(mode="sequential") as engine:
            got_metal, got_via = _concurrent_checks(
                engine, [(metal_layout, metal_deck()), (via_layout, via_deck())]
            )
        assert got_metal.to_csv() == metal_ref.to_csv()
        assert got_via.to_csv() == via_ref.to_csv()

    def test_contexts_keep_profiles_separate(self, metal_layout, via_layout):
        # The per-check profile map lives on the CheckContext, not the
        # engine: concurrent checks of different decks each report exactly
        # their own rules' profiles, never a blend.
        with Engine(mode="sequential") as engine:
            got_metal, got_via = _concurrent_checks(
                engine, [(metal_layout, metal_deck()), (via_layout, via_deck())]
            )
        assert [r.rule.name for r in got_metal.results] == ["S", "W"]
        assert [r.rule.name for r in got_via.results] == ["ENC", "A"]
        for report in (got_metal, got_via):
            for result in report.results:
                assert result.profile is not None

    def test_check_context_shape(self):
        # The context is the re-entrancy unit: everything a check mutates.
        fields = {f.name for f in CheckContext.__dataclass_fields__.values()}
        assert {"plan", "backend", "profiles", "results_by_name"} <= fields


class TestMultiprocReentrancy:
    def test_shared_pool_byte_identical_to_solo(
        self, tmp_path, metal_layout, via_layout, metal_ref, via_ref
    ):
        # One engine, one warm pool, one pack store, one cost model — two
        # threads checking different layouts/decks concurrently must match
        # their solo sequential references byte for byte.
        options = mp_options(cache_dir=str(tmp_path))
        with Engine(options=options) as engine:
            got_metal, got_via = _concurrent_checks(
                engine, [(metal_layout, metal_deck()), (via_layout, via_deck())]
            )
            assert registered(2).worker_pids(), "both checks share the pool"
        assert got_metal.to_csv() == metal_ref.to_csv()
        assert got_via.to_csv() == via_ref.to_csv()

    def test_stats_are_not_cross_contaminated(self, metal_layout, via_layout):
        # cost_model=False keeps every shard on the pool (no inline
        # routing), so each report's mp stats describe exactly its own
        # check: plan compiles count each deck once, and nothing from the
        # other check's shards leaks in.
        options = mp_options(cost_model=False)
        with Engine(options=options) as engine:
            got_metal, got_via = _concurrent_checks(
                engine, [(metal_layout, metal_deck()), (via_layout, via_deck())]
            )
        metal_stats = got_metal.results[-1].stats
        via_stats = got_via.results[-1].stats
        for stats in (metal_stats, via_stats):
            assert stats["mp_plan_compiles"] == 1
            assert stats["mp_degraded"] == 0
            assert stats["mp_rule_tasks"] + stats["mp_shard_tasks"] > 0

    def test_recovery_ladder_with_a_shared_pool(
        self, monkeypatch, metal_layout, via_layout, metal_ref, via_ref
    ):
        # REPRO_FAULTS arms one worker_raise across the whole process;
        # whichever concurrent check's submission draws it must recover via
        # a retry on the shared pool, and BOTH checks must still match
        # their references with no in-process degradation.
        monkeypatch.setenv(faults.FAULTS_ENV, "worker_raise:times=1")
        with Engine(options=mp_options()) as engine:
            got_metal, got_via = _concurrent_checks(
                engine, [(metal_layout, metal_deck()), (via_layout, via_deck())]
            )
        assert got_metal.to_csv() == metal_ref.to_csv()
        assert got_via.to_csv() == via_ref.to_csv()
        metal_stats = got_metal.results[-1].stats
        via_stats = got_via.results[-1].stats
        assert metal_stats["mp_retries"] + via_stats["mp_retries"] >= 1
        assert metal_stats["mp_degraded"] == 0
        assert via_stats["mp_degraded"] == 0

"""ReportCache: the memory front, and contention on the disk back.

PR 7 claimed tmp+``os.replace`` makes report persistence safe under
concurrency; these tests actually race writers against writers and readers
against half-written files. The contract: ``load`` either returns a report
byte-identical to one *complete* ``save`` or misses — never a corrupt hit.
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.checks.base import Violation, ViolationKind
from repro.core.packstore import PackStore
from repro.core.reportcache import ReportCache, deck_digest, report_key
from repro.core.results import CheckReport, CheckResult
from repro.core.rules import layer
from repro.geometry import Rect


def _deck():
    return [layer(19).width().greater_than(18).named("W19")]


def _report(variant: int):
    """A report whose violations identify which writer produced it."""
    rule = _deck()[0]
    violations = [
        Violation(
            kind=ViolationKind.WIDTH,
            layer=19,
            region=Rect(variant * 100, 0, variant * 100 + 10, 10),
            measured=variant,
            required=18,
        )
    ]
    result = CheckResult(rule=rule, violations=violations, seconds=0.001)
    return CheckReport("uart", "sequential", [result])


class TestReportCacheBasics:
    def test_roundtrip(self, tmp_path):
        cache = ReportCache(PackStore(str(tmp_path)))
        key = report_key(deck_digest(_deck()), {19: "abc"})
        assert cache.load(key, _deck()) is None
        cache.save(key, _report(3))
        loaded = cache.load(key, _deck())
        assert loaded is not None
        assert loaded.to_csv() == _report(3).to_csv()

    def test_entries_bytes_and_clear(self, tmp_path):
        store = PackStore(str(tmp_path))
        cache = ReportCache(store)
        assert cache.entries() == []
        assert cache.total_bytes() == 0
        for i in range(3):
            cache.save(report_key(deck_digest(_deck()), {19: f"v{i}"}), _report(i))
        entries = cache.entries()
        assert len(entries) == 3
        assert cache.total_bytes() == sum(nbytes for _, nbytes in entries)
        assert all(nbytes > 0 for _, nbytes in entries)
        assert cache.clear() == 3
        assert cache.entries() == []
        # clear() on an already-empty (or never-created) directory is a no-op
        assert cache.clear() == 0

    def test_clear_removes_orphaned_temp_files(self, tmp_path):
        """A writer killed between mkstemp and os.replace leaves a *.tmp
        behind, in reports/ and in a pack-store shard; clear() removes both
        without counting them as entries."""
        store = PackStore(str(tmp_path))
        cache = ReportCache(store)
        cache.save(_key(0), _report(0))
        store.save("ab" + "0" * 62, {"x": np.arange(3)})
        shard = os.path.join(store.root, "ab")
        orphans = [os.path.join(cache.root, "x1.tmp"), os.path.join(shard, ".ab.123.y.tmp")]
        for path in orphans:
            with open(path, "w") as fh:
                fh.write("partial")
        assert len(cache.entries()) == 1 and len(store.entries()) == 1
        assert cache.clear() == 1 and store.clear() == 1
        assert not any(os.path.exists(path) for path in orphans)
        assert os.listdir(cache.root) == [] and os.listdir(shard) == []

    def test_writer_whose_temp_file_vanishes_swallows_the_error(self, tmp_path, monkeypatch):
        """clear() racing a live writer: its os.replace fails, save() does not."""
        cache = ReportCache(PackStore(str(tmp_path)))
        real_replace = os.replace

        def clear_first(src, dst):
            cache.clear()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", clear_first)
        cache.save(_key(0), _report(0))  # no exception
        monkeypatch.setattr(os, "replace", real_replace)
        assert cache.entries() == [] and os.listdir(cache.root) == []

    def test_half_written_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ReportCache(PackStore(str(tmp_path)))
        key = report_key(deck_digest(_deck()), {19: "abc"})
        os.makedirs(cache.root, exist_ok=True)
        full = _report(1).to_json(indent=None)
        for truncated in (full[: len(full) // 2], "", "{", '{"results": 7}'):
            with open(cache._path(key), "w", encoding="utf-8") as fh:
                fh.write(truncated)
            assert cache.load(key, _deck()) is None
        # A subsequent good save repairs the entry.
        cache.save(key, _report(1))
        assert cache.load(key, _deck()) is not None


def _key(version):
    return report_key(deck_digest(_deck()), {19: f"v{version}"})


class TestMemoryFront:
    def test_memory_only_roundtrip_returns_the_saved_object(self):
        cache = ReportCache()
        assert cache.load(_key(0), _deck()) is None
        report = _report(0)
        cache.save(_key(0), report)
        assert cache.load(_key(0), _deck()) is report
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.entries() == [] and cache.clear() == 0
        assert cache.load(_key(0), _deck()) is None  # clear() forgot it

    def test_capacity_bound_evicts_least_recently_used(self):
        cache = ReportCache(capacity=2)
        cache.save(_key(0), _report(0))
        cache.save(_key(1), _report(1))
        assert cache.load(_key(0), _deck()) is not None  # 0 is now the newer
        cache.save(_key(2), _report(2))
        assert cache.memory_entries() == 2
        assert cache.load(_key(1), _deck()) is None  # evicted, no disk back
        assert cache.load(_key(0), _deck()) is not None
        assert cache.load(_key(2), _deck()) is not None

    def test_peek_neither_counts_nor_promotes(self):
        cache = ReportCache(capacity=2)
        cache.save(_key(0), _report(0))
        cache.save(_key(1), _report(1))
        assert cache.peek(_key(0)) is not None and cache.peek(_key(7)) is None
        assert (cache.hits, cache.misses) == (0, 0)
        cache.save(_key(2), _report(2))  # 0 is still the oldest: evicted
        assert cache.peek(_key(0)) is None and cache.peek(_key(1)) is not None

    def test_a_deck_without_digest_or_token_has_no_key(self):
        assert report_key(None, {19: "abc"}) is None

    def test_injected_store_answers_engine_and_check_window(self):
        from repro.core import Engine, check_window
        from repro.workloads import asap7, build_design

        layout = build_design("uart", "ci")
        deck = asap7.full_deck()
        cache = ReportCache()
        window = Rect(0, 0, 4000, 4000)
        computed = check_window(layout, window, rules=deck, reports=cache)
        assert (cache.hits, cache.misses) == (0, 1) and cache.memory_entries() == 0
        with Engine(reports=cache) as engine:
            engine.check(layout, rules=deck)
        filtered = check_window(layout, window, rules=deck, reports=cache)
        assert cache.hits == 1 and filtered.to_csv() == computed.to_csv()
        assert all(r.stats == {"window_filtered": 1} for r in filtered.results)

    def test_capacity_zero_keeps_nothing_in_memory(self, tmp_path):
        memory_only = ReportCache(capacity=0)
        memory_only.save(_key(0), _report(0))
        assert memory_only.memory_entries() == 0
        assert memory_only.load(_key(0), _deck()) is None
        # With a disk back every load is a read of it.
        cache = ReportCache(PackStore(str(tmp_path)), capacity=0)
        cache.save(_key(0), _report(0))
        first = cache.load(_key(0), _deck())
        assert first is not None and first is not cache.load(_key(0), _deck())
        assert cache.memory_entries() == 0

    def test_negative_capacity_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            ReportCache(capacity=-1)

    def test_disk_hit_is_promoted_and_evicted_entries_reload(self, tmp_path):
        writer = ReportCache(PackStore(str(tmp_path)), capacity=1)
        writer.save(_key(0), _report(0))
        writer.save(_key(1), _report(1))  # evicts 0 from memory, not from disk
        assert writer.load(_key(0), _deck()).to_csv() == _report(0).to_csv()
        reader = ReportCache(PackStore(str(tmp_path)))
        loaded = reader.load(_key(1), _deck())
        os.unlink(reader._path(_key(1)))
        assert reader.load(_key(1), _deck()) is loaded  # from the front now

    def test_private_keys_never_reach_disk(self, tmp_path):
        from repro.core.reportcache import PRIVATE, private_deck

        cache = ReportCache(PackStore(str(tmp_path)))
        mine, other = private_deck(), private_deck()
        key = report_key(mine, {19: "abc"})
        assert key.startswith(PRIVATE) and key != report_key(other, {19: "abc"})
        cache.save(key, _report(5))
        assert cache.load(key, _deck()) is not None
        assert cache.entries() == [] and not os.path.exists(cache.root)
        # Not even a planted file is read back under a private key.
        os.makedirs(cache.root)
        with open(os.path.join(cache.root, f"{key}.json"), "w", encoding="utf-8") as fh:
            fh.write(_report(6).to_json(indent=None))
        assert ReportCache(PackStore(str(tmp_path))).load(key, _deck()) is None

    def test_hit_is_relabelled_with_the_requested_layout_name(self, tmp_path):
        cache = ReportCache(PackStore(str(tmp_path)))
        cache.save(_key(0), _report(0))
        same = cache.load(_key(0), _deck(), layout_name="uart")
        renamed = cache.load(_key(0), _deck(), layout_name="uart_v2")
        assert same.layout_name == "uart" and renamed.layout_name == "uart_v2"
        assert renamed.to_csv() == same.to_csv()
        assert cache.load(_key(0), _deck()).layout_name == "uart"  # stored as saved

    def test_two_threads_on_one_key_lose_no_update(self):
        """Loads and saves of one key from two threads: every load is a
        whole report of some writer, and no hit/miss increment is lost."""
        cache = ReportCache(capacity=1)
        valid = {_report(v).to_csv() for v in range(2)}
        rounds = 400
        bad, errors = [], []
        start = threading.Barrier(2)

        def worker(variant):
            try:
                start.wait(10)
                for _ in range(rounds):
                    cache.save(_key(0), _report(variant))
                    loaded = cache.load(_key(0), _deck())
                    if loaded is None or loaded.to_csv() not in valid:
                        bad.append(loaded)
                    cache.load(_key(1), _deck())  # always a miss
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(v,)) for v in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not bad
        assert (cache.hits, cache.misses) == (2 * rounds, 2 * rounds)
        assert cache.memory_entries() == 1


class TestReportCacheContention:
    def test_racing_writers_same_key(self, tmp_path):
        """N writers hammering one key: the file is always one whole report."""
        cache = ReportCache(PackStore(str(tmp_path)))
        key = report_key(deck_digest(_deck()), {19: "abc"})
        valid_csvs = {_report(v).to_csv() for v in range(4)}
        rounds = 25
        start = threading.Barrier(4)

        def writer(variant: int):
            start.wait(10)
            for _ in range(rounds):
                cache.save(key, _report(variant))

        threads = [threading.Thread(target=writer, args=(v,)) for v in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        loaded = cache.load(key, _deck())
        assert loaded is not None
        assert loaded.to_csv() in valid_csvs
        # No stray tmp files leaked by the racing writers' os.replace calls.
        leftovers = [n for n in os.listdir(cache.root) if n.endswith(".tmp")]
        assert leftovers == []

    def test_reader_racing_writers_never_sees_corruption(self, tmp_path):
        """Concurrent loads during a write storm: every hit is one variant."""
        cache = ReportCache(PackStore(str(tmp_path)))
        key = report_key(deck_digest(_deck()), {19: "abc"})
        valid_csvs = {_report(v).to_csv() for v in range(3)}
        stop = threading.Event()
        bad_hits = []
        hits = []

        def writer(variant: int):
            while not stop.is_set():
                cache.save(key, _report(variant))

        def reader():
            # capacity=0: every load of this reader races the disk back.
            local = ReportCache(PackStore(str(tmp_path)), capacity=0)
            while not stop.is_set():
                loaded = local.load(key, _deck())
                if loaded is None:
                    continue  # a miss is allowed; corruption is not
                hits.append(1)
                if loaded.to_csv() not in valid_csvs:
                    bad_hits.append(loaded.to_csv())
                    return

        writers = [threading.Thread(target=writer, args=(v,)) for v in range(3)]
        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in writers + readers:
            t.start()
        # Let the storm run briefly, then stop everyone.
        threading.Event().wait(1.0)
        stop.set()
        for t in writers + readers:
            t.join(30)
        assert bad_hits == []
        assert hits  # the race actually produced hits, not a vacuous pass

    def test_direct_json_of_saved_file_is_complete(self, tmp_path):
        """After any save the on-disk bytes parse as the full report schema."""
        cache = ReportCache(PackStore(str(tmp_path)))
        key = report_key(deck_digest(_deck()), {19: "abc"})
        cache.save(key, _report(2))
        with open(cache._path(key), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload) >= {"layout", "mode", "results", "total_violations"}
        assert payload["results"][0]["rule"] == "W19"

"""ReportCache: the memory front, contention on the disk back, its keys and
its cache directory.

PR 7 claimed tmp+``os.replace`` makes report persistence safe under
concurrency; these tests actually race writers against writers and readers
against half-written files. The contract: ``load`` either returns a report
byte-identical to one *complete* ``save`` or misses — never a corrupt hit.

Keys are content digests, so a cache directory an earlier build wrote keeps
answering: the keys of a fixed layout and deck are pinned, and
``tests/data/legacy_cache`` is a directory written by the last build that
also stored packed buffers (``<xx>/<key>.pack`` shards and a
``counters.json``, both unused now).
"""

import builtins
import hashlib
import json
import os
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.checks.base import Violation, ViolationKind
from repro.core import Engine, EngineOptions, check_window
from repro.core.packstore import (
    FORMAT_VERSION,
    PackStore,
    layer_digests,
    layer_geometry_digest,
    resolve_store,
    store_key,
)
from repro.core.reportcache import ReportCache, deck_digest, report_key
from repro.core.results import CheckReport, CheckResult
from repro.core.rules import layer
from repro.geometry import Polygon, Rect, Transform
from repro.hierarchy.tree import HierarchyTree
from repro.layout import CellReference, Layout
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations

from .violation_rows import table_of


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
    result = CheckResult(rule=rule, violations=table_of(violations), seconds=0.001)
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
        behind in reports/; clear() removes it without counting it as an
        entry."""
        cache = ReportCache(PackStore(str(tmp_path)))
        cache.save(_key(0), _report(0))
        orphan = os.path.join(cache.root, "x1.tmp")
        with open(orphan, "w") as fh:
            fh.write("partial")
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert not os.path.exists(orphan)
        assert os.listdir(cache.root) == []

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


# ---------------------------------------------------------------------------
# Content keys, the cache directory, and directories earlier builds wrote


LEGACY_CACHE = Path(__file__).parent / "data" / "legacy_cache"


def small_layout(shift: int = 0, *, via_layer: int = 2) -> Layout:
    """Two leaf kinds, a handful of instances; ``shift`` nudges one vertex."""
    layout = Layout(f"store-{shift}")
    leaf = layout.new_cell("leaf")
    leaf.add_polygon(1, Polygon.from_rect_coords(0, 0, 20 + shift, 10))
    leaf.add_polygon(via_layer, Polygon.from_rect_coords(4, 2, 8, 6))
    other = layout.new_cell("other")
    other.add_polygon(1, Polygon.from_rect_coords(0, 0, 12, 12))
    top = layout.new_cell("top")
    for i in range(4):
        top.add_reference(CellReference("leaf", Transform(dx=60 * i, dy=0)))
    top.add_reference(CellReference("other", Transform(dx=0, dy=80)))
    layout.set_top("top")
    return layout


def small_deck(spacing: int = 9, width: int = 5):
    """Every pack kind the parallel mode builds (fused edges, fused corners,
    rect rows) plus a per-definition kind."""
    return [
        layer(1).spacing().greater_than(spacing),
        layer(1).corner_spacing().greater_than(9),
        layer(2).enclosure(layer(1)).greater_than(3),
        layer(1).width().greater_than(width),
    ]


def tight_deck():
    """The deck ``tests/data/legacy_cache`` holds a report of: four rows."""
    return small_deck(spacing=45, width=15)


def digest(layout: Layout, layer_number: int = 1) -> str:
    return layer_geometry_digest(HierarchyTree(layout), layer_number)


def layout_key(layout: Layout, deck) -> str:
    tree = HierarchyTree(layout)
    return report_key(deck_digest(deck), layer_digests(tree, layout.layers()))


class TestContentKeys:
    def test_identical_layouts_share_digests(self):
        assert digest(small_layout()) == digest(small_layout())

    def test_mutating_one_polygon_changes_the_digest_and_the_key(self):
        assert digest(small_layout(0)) != digest(small_layout(1))
        deck = small_deck()
        assert layout_key(small_layout(0), deck) != layout_key(small_layout(1), deck)

    def test_mutation_on_another_layer_keeps_the_digest(self):
        # Layer 1 geometry is identical; only the via layer moved.
        assert digest(small_layout(via_layer=2)) == digest(small_layout(via_layer=3))

    def test_placement_change_changes_the_digest(self):
        moved = small_layout()
        moved.cell("top").add_reference(CellReference("leaf", Transform(dx=500, dy=0)))
        assert digest(small_layout()) != digest(moved)

    def test_layers_have_their_own_digests(self):
        tree = HierarchyTree(small_layout())
        assert layer_geometry_digest(tree, 1) != layer_geometry_digest(tree, 2)

    def test_a_deck_edit_changes_the_key(self):
        layout = small_layout()
        assert layout_key(layout, small_deck()) != layout_key(layout, tight_deck())

    def test_keys_are_pinned(self, tmp_path):
        """A cache directory an earlier build wrote still hits: the keys of a
        fixed layout and deck are golden digests. A change to any of them
        makes every existing directory miss once; it must be deliberate
        (bump ``FORMAT_VERSION`` and update these)."""
        assert digest(small_layout()) == (
            "21c782081db90f540358ba952b26dce291340e302c8f8809f2316120ca091f40"
        )
        pinned = "914e3f69de03472e9eada5678aae8d600f60530415f1cc741471f5846de7abf3"
        assert layout_key(small_layout(), small_deck()) == pinned
        with Engine(options=EngineOptions(mode="parallel", cache_dir=str(tmp_path))) as engine:
            engine.check(small_layout(), rules=small_deck())
        assert [p.stem for p in (tmp_path / "reports").glob("*.json")] == [pinned]
        assert [p.stem for p in (LEGACY_CACHE / "reports").glob("*.json")] == [
            layout_key(small_layout(), tight_deck())
        ]


class TestResolveStore:
    def test_disabled_or_unconfigured_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_store(EngineOptions()) is None
        assert resolve_store(EngineOptions(cache_dir="/tmp/x", use_cache=False)) is None

    def test_env_var_engages(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = resolve_store(EngineOptions())
        assert store is not None and store.root == str(tmp_path)

    def test_option_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/nonexistent")
        store = resolve_store(EngineOptions(cache_dir=str(tmp_path)))
        assert store.root == str(tmp_path)


def _cold(layout: Layout, deck) -> str:
    return Engine(options=EngineOptions(use_cache=False)).check(layout, rules=deck).to_csv()


class TestCacheDirectory:
    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_a_check_stores_its_report_and_nothing_else(self, tmp_path, mode):
        options = EngineOptions(mode=mode, cache_dir=str(tmp_path))
        with Engine(options=options) as engine:
            first = engine.check(small_layout(), rules=tight_deck())
        assert sorted(p.relative_to(tmp_path).parts[0] for p in tmp_path.rglob("*")
                      if p.is_file()) == ["reports"]
        with Engine(options=options) as engine:
            again = engine.check(small_layout(), rules=tight_deck())
            assert engine.reports.hits == 1 and engine.last_profiles == {}
        assert first.to_csv() == again.to_csv() == _cold(small_layout(), tight_deck())

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_a_geometry_edit_misses_and_recomputes_exactly(self, tmp_path, mode):
        options = EngineOptions(mode=mode, cache_dir=str(tmp_path))
        Engine(options=options).check(small_layout(0), rules=tight_deck())
        with Engine(options=options) as engine:
            edited = engine.check(small_layout(5), rules=tight_deck())
            assert (engine.reports.hits, engine.reports.misses) == (0, 1)
        assert edited.to_csv() == _cold(small_layout(5), tight_deck())

    def test_a_windowed_check_with_a_cache_dir(self, tmp_path):
        window = Rect(0, 0, 100, 50)
        options = EngineOptions(cache_dir=str(tmp_path))
        first = check_window(small_layout(), window, rules=tight_deck(), options=options)
        again = check_window(small_layout(), window, rules=tight_deck(), options=options)
        assert first.to_csv() == again.to_csv()
        assert "L1.S.45" in first.to_csv()


class TestLegacyCacheDirectory:
    """A directory an earlier build wrote: its report still answers, and its
    ``.pack`` shards and ``counters.json`` are neither read nor changed."""

    @pytest.fixture()
    def legacy(self, tmp_path):
        root = tmp_path / "cache"
        shutil.copytree(LEGACY_CACHE, root)
        leftovers = sorted(p for p in root.rglob("*") if p.is_file() and p.parent.name != "reports")
        assert any(p.suffix == ".pack" for p in leftovers)
        assert (root / "counters.json").exists()
        return root, {p: p.read_bytes() for p in leftovers}

    @staticmethod
    def opened_paths(monkeypatch):
        seen = []
        real_open, real_os_open = builtins.open, os.open

        def spy_open(file, *args, **kwargs):
            seen.append(str(file))
            return real_open(file, *args, **kwargs)

        def spy_os_open(path, *args, **kwargs):
            seen.append(str(path))
            return real_os_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(os, "open", spy_os_open)
        return seen

    def test_the_stored_report_answers_then_a_recompute_reads_no_pack(
        self, legacy, monkeypatch
    ):
        root, leftovers = legacy
        cold = _cold(small_layout(), tight_deck())
        assert len(cold.splitlines()) == 5  # a header and four rows
        options = EngineOptions(mode="parallel", cache_dir=str(root))
        with Engine(options=options) as engine:
            stored = engine.check(small_layout(), rules=tight_deck())
            assert engine.reports.hits == 1 and engine.last_profiles == {}
        assert stored.to_csv() == cold

        shutil.rmtree(root / "reports")
        opened = self.opened_paths(monkeypatch)
        with Engine(options=options) as engine:
            computed = engine.check(small_layout(), rules=tight_deck())
            assert engine.reports.misses == 1 and engine.last_profiles
        monkeypatch.undo()
        assert computed.to_csv() == cold
        assert not [path for path in opened if path.endswith((".pack", "counters.json"))]
        assert {p: p.read_bytes() for p in leftovers} == leftovers
        assert sorted(root.rglob("*.pack")) == [p for p in leftovers if p.suffix == ".pack"]
        assert len(list((root / "reports").glob("*.json"))) == 1


class TestCacheCli:
    @pytest.fixture()
    def uart_gds(self, tmp_path):
        from repro.gdsii import write
        from repro.layout import gdsii_from_layout
        from repro.workloads import build_design

        path = tmp_path / "uart.gds"
        write(gdsii_from_layout(build_design("uart")), path)
        return str(path)

    def test_stats_counts_reports_and_clear_removes_them(self, uart_gds, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        main(["check", uart_gds, "--top", "top", "--mode", "parallel", "--cache-dir", cache])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"cache: {os.path.abspath(cache)}\n")
        assert "report entries: 1\n" in out and "report bytes: 0" not in out
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert capsys.readouterr().out == (
            f"removed 1 cached report(s) from {os.path.join(os.path.abspath(cache), 'reports')}\n"
        )
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "report entries: 0\nreport bytes: 0\n" in capsys.readouterr().out

    def test_clear_leaves_an_earlier_builds_leftovers(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        shutil.copytree(LEGACY_CACHE, cache)
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        assert "report entries: 1\n" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed 1 cached report(s)" in capsys.readouterr().out
        assert list(cache.rglob("*.pack")) and (cache / "counters.json").exists()

    def test_cache_dir_env_var(self, uart_gds, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        cache = str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache)
        main(["check", uart_gds, "--top", "top", "--mode", "parallel"])
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "report entries: 1\n" in capsys.readouterr().out

    def test_no_cache_flag_skips_the_store(self, uart_gds, tmp_path, monkeypatch):
        from repro.cli import main

        cache = str(tmp_path / "nocache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache)
        main(["check", uart_gds, "--top", "top", "--mode", "parallel", "--no-cache"])
        assert not os.path.isdir(cache)

    def test_cache_without_dir_errors(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "stats"])
        assert exit_info.value.code == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_check_window_accepts_cache_args(self, uart_gds, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "wcache")
        code = main(["check-window", uart_gds, "0", "0", "2000", "2000",
                     "--top", "top", "--cache-dir", cache, "--format", "csv"])
        assert code in (0, 1)
        # A clipped report is never stored: the flags are accepted and harmless.
        assert "rule," in capsys.readouterr().out
        assert not os.path.isdir(os.path.join(cache, "reports"))


# ---------------------------------------------------------------------------
# The deck-iteration loop and byte-identity on a dirty design


@pytest.fixture(scope="module")
def dirty_uart():
    """uart with violations planted on M1, M2 and M3: every rule of the full
    ASAP7 deck fires on it, so a report that drops or misstates any rule
    shows in its CSV."""
    layout = build_design("uart")
    for metal, via in ((asap7.M1, asap7.V1), (asap7.M2, asap7.V2), (asap7.M3, asap7.V2)):
        inject_violations(
            layout,
            InjectionPlan(spacing=2, width=1, area=1, enclosure=1),
            layer=metal,
            via_layer=via,
            metal_layer=metal,
            seed=7,
        )
    cold = Engine(options=EngineOptions(use_cache=False)).check(layout, rules=asap7.full_deck())
    assert all(result.violations for result in cold.results)
    return layout, cold.to_csv()


FULL_DECK_NAMES = [rule.name for rule in asap7.full_deck()]


def one_rule_edit(name: str, edit: str):
    """The full deck with rule ``name`` demoted to a warning or dropped."""
    deck = asap7.full_deck()
    if edit == "dropped":
        return [rule for rule in deck if rule.name != name]
    return [rule.as_warning() if rule.name == name else rule for rule in deck]


class TestDeckIteration:
    """Each one-rule edit of a fixed layout's deck misses the report stored
    for the unedited deck and recomputes exactly what a cold check does."""

    @pytest.mark.parametrize("edit", ["warning", "dropped"])
    @pytest.mark.parametrize("name", FULL_DECK_NAMES)
    def test_a_one_rule_edit_misses_and_recomputes_exactly(
        self, tmp_path, dirty_uart, name, edit
    ):
        layout, base = dirty_uart
        deck = one_rule_edit(name, edit)
        assert layout_key(layout, deck) != layout_key(layout, asap7.full_deck())
        options = EngineOptions(mode="parallel", cache_dir=str(tmp_path))
        Engine(options=options).check(layout, rules=asap7.full_deck())
        with Engine(options=options) as engine:
            edited = engine.check(layout, rules=deck)
            assert (engine.reports.hits, engine.reports.misses) == (0, 1)
        assert edited.to_csv() == _cold(layout, deck) != base
        assert len(list((tmp_path / "reports").glob("*.json"))) == 2

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_the_unedited_deck_still_answers_after_every_edit(self, tmp_path, dirty_uart, mode):
        layout, base = dirty_uart
        options = EngineOptions(mode=mode, cache_dir=str(tmp_path))
        Engine(options=options).check(layout, rules=asap7.full_deck())
        for name in FULL_DECK_NAMES[:3]:
            Engine(options=options).check(layout, rules=one_rule_edit(name, "dropped"))
        with Engine(options=options) as engine:
            again = engine.check(layout, rules=asap7.full_deck())
            assert engine.reports.hits == 1 and engine.last_profiles == {}
        assert again.to_csv() == base


class TestByteIdentity:
    """Reports are byte-identical in both modes whatever the cache: none, a
    fresh directory (cold, then the stored report), or a directory an
    earlier build wrote."""

    @pytest.mark.parametrize("arm", ["no-cache", "fresh-dir", "stored", "legacy-dir"])
    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_every_cache_arm_reports_the_cold_bytes(self, tmp_path, dirty_uart, mode, arm):
        layout, base = dirty_uart
        deck = asap7.full_deck()
        root = tmp_path / "cache"
        if arm == "legacy-dir":
            shutil.copytree(LEGACY_CACHE, root)
        leftovers = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        if arm == "no-cache":
            options = EngineOptions(mode=mode, use_cache=False)
        else:
            options = EngineOptions(mode=mode, cache_dir=str(root))
        if arm == "stored":
            Engine(options=options).check(layout, rules=deck)
        with Engine(options=options) as engine:
            report = engine.check(layout, rules=deck)
            if arm != "no-cache":
                hits = 1 if arm == "stored" else 0
                assert (engine.reports.hits, engine.reports.misses) == (hits, 1 - hits)
        assert report.to_csv() == base
        assert {p: p.read_bytes() for p in leftovers} == leftovers
        if arm == "no-cache":
            assert not root.exists()

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_a_windowed_check_with_a_cache_dir_matches_one_without(
        self, tmp_path, dirty_uart, mode
    ):
        layout, _ = dirty_uart
        window = HierarchyTree(layout).top_mbr(asap7.M2)
        deck = asap7.full_deck()
        cached = check_window(layout, window, rules=deck,
                              options=EngineOptions(mode=mode, cache_dir=str(tmp_path)))
        cold = check_window(layout, window, rules=deck,
                            options=EngineOptions(mode=mode, use_cache=False))
        assert cached.to_csv() == cold.to_csv()
        assert cached.total_violations > 0
        # A clipped report is never stored.
        assert not list(tmp_path.rglob("*.json"))


class TestLayerDigestIsolation:
    """An edit on one layer changes that layer's digest and the report key,
    and no other layer's digest: a deck on the other layers keeps hitting."""

    @pytest.mark.parametrize("edited", sorted(build_design("uart").layers()))
    def test_an_edit_moves_only_its_own_layer(self, edited):
        layout = build_design("uart")
        layers = sorted(layout.layers())
        before = layer_digests(HierarchyTree(layout), layers)
        mbr = HierarchyTree(layout).top_mbr(edited)
        layout.top_cell().add_polygon(
            edited, Polygon.from_rect_coords(mbr.xlo, mbr.yhi + 100, mbr.xlo + 50, mbr.yhi + 150)
        )
        after = layer_digests(HierarchyTree(layout), layers)
        assert [n for n in layers if before[n] != after[n]] == [edited]
        deck = asap7.full_deck()
        assert report_key(deck_digest(deck), after) != report_key(deck_digest(deck), before)


class TestKeyFunctions:
    @pytest.mark.parametrize(
        "use_cache, option, env, expected",
        [
            (True, None, None, None),
            (True, None, "env", "env"),
            (True, "opt", None, "opt"),
            (True, "opt", "env", "opt"),
            (False, None, None, None),
            (False, None, "env", None),
            (False, "opt", None, None),
            (False, "opt", "env", None),
        ],
    )
    def test_resolve_store_precedence(self, monkeypatch, tmp_path, use_cache, option, env, expected):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        if env:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / env))
        options = EngineOptions(
            cache_dir=str(tmp_path / option) if option else None, use_cache=use_cache
        )
        store = resolve_store(options)
        if expected is None:
            assert store is None
        else:
            assert store.root == str(tmp_path / expected)

    def test_store_key_parts_are_ordered_and_separated(self):
        assert store_key("a", "b") != store_key("b", "a")
        assert store_key("ab", "c") != store_key("a", "bc")
        assert store_key(("a", 1)) != store_key("a", 1)

    def test_store_key_mixes_in_the_format_version(self):
        bare = hashlib.sha256(b"\x1f" + repr("report").encode("utf-8")).hexdigest()
        salted = hashlib.sha256(
            f"v{FORMAT_VERSION}".encode("ascii") + b"\x1f" + repr("report").encode("utf-8")
        ).hexdigest()
        assert FORMAT_VERSION == 1
        assert store_key("report") == salted != bare

    def test_report_key_ignores_the_order_layers_are_listed_in(self):
        deck = deck_digest(small_deck())
        assert report_key(deck, {1: "a", 2: "b"}) == report_key(deck, {2: "b", 1: "a"})
        assert report_key(deck, {1: "a", 2: "b"}) != report_key(deck, {1: "b", 2: "a"})

    def test_a_deck_that_cannot_be_fingerprinted_has_no_key(self):
        deck = [layer(1).polygons().ensures(lambda polygon: True)]
        assert deck_digest(deck) is None
        assert report_key(deck_digest(deck), {1: "a"}) is None

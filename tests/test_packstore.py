"""Persistent pack store: keying, invalidation, robustness, concurrency.

The store is an accelerator, never a correctness dependency: every test
here asserts either (a) a content change produces a different key — strict
invalidation by construction — or (b) a damaged/raced store degrades to the
cold path and heals itself.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.core import Engine, EngineOptions, PackStore, ReportCache
from repro.core.packstore import (
    layer_geometry_digest,
    member_rows_from_arrays,
    member_rows_to_arrays,
    resolve_store,
    store_key,
)
from repro.geometry import Polygon, Transform
from repro.hierarchy.edgepack import (
    RectBuffer,
    corners_from_arrays,
    corners_to_arrays,
    edge_pair_from_arrays,
    edge_pair_to_arrays,
    rect_rows_from_arrays,
    rect_rows_to_arrays,
)
from repro.hierarchy.tree import HierarchyTree
from repro.layout import CellReference, Layout
from repro.partition.rows import margin_for_rule
from repro.workloads import asap7, build_design


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


class TestContentKeys:
    def test_identical_layouts_share_digests(self):
        a = layer_geometry_digest(HierarchyTree(small_layout()), 1)
        b = layer_geometry_digest(HierarchyTree(small_layout()), 1)
        assert a == b

    def test_mutating_one_polygon_changes_the_key(self):
        base = layer_geometry_digest(HierarchyTree(small_layout(0)), 1)
        nudged = layer_geometry_digest(HierarchyTree(small_layout(1)), 1)
        assert base != nudged
        assert store_key("fused-edges", base, True, 9) != store_key(
            "fused-edges", nudged, True, 9
        )

    def test_mutation_on_another_layer_keeps_the_key(self):
        # Layer 1 geometry is identical; only the via layer moved.
        base = layer_geometry_digest(HierarchyTree(small_layout(via_layer=2)), 1)
        moved = layer_geometry_digest(HierarchyTree(small_layout(via_layer=3)), 1)
        assert base == moved

    def test_partition_threshold_changes_the_key(self):
        digest = layer_geometry_digest(HierarchyTree(small_layout()), 1)
        assert margin_for_rule(18) != margin_for_rule(24)
        assert store_key("partition", digest, margin_for_rule(18)) != store_key(
            "partition", digest, margin_for_rule(24)
        )

    def test_use_rows_flag_changes_the_key(self):
        digest = layer_geometry_digest(HierarchyTree(small_layout()), 1)
        assert store_key("fused-edges", digest, True, 9) != store_key(
            "fused-edges", digest, False, 9
        )

    def test_reordering_layers_changes_the_key(self):
        tree = HierarchyTree(small_layout())
        d1 = layer_geometry_digest(tree, 1)
        d2 = layer_geometry_digest(tree, 2)
        assert d1 != d2
        assert store_key("rect-rows", (d1, d2), True, 9) != store_key(
            "rect-rows", (d2, d1), True, 9
        )

    def test_placement_change_changes_the_digest(self):
        layout = small_layout()
        moved = small_layout()
        moved.cell("top").add_reference(
            CellReference("leaf", Transform(dx=500, dy=0))
        )
        assert layer_geometry_digest(HierarchyTree(layout), 1) != (
            layer_geometry_digest(HierarchyTree(moved), 1)
        )


class TestRoundTrip:
    def test_save_then_load_memmaps_identical_arrays(self, tmp_path):
        store = PackStore(str(tmp_path))
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.arange(12, dtype=np.int32).reshape(3, 4),
            "empty": np.zeros(0, dtype=np.int64),
        }
        key = store_key("test", "digest", 1)
        store.save(key, arrays, {"tag": "x"})
        loaded = store.load(key, lambda arr, meta: (dict(arr), meta))
        assert loaded is not None
        got, meta = loaded
        assert meta == {"tag": "x"}
        for name, array in arrays.items():
            np.testing.assert_array_equal(got[name], array)
            assert not got[name].flags.writeable
        assert store.hits == 1 and store.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        store = PackStore(str(tmp_path))
        assert store.load("0" * 64, lambda a, m: a) is None
        assert store.misses == 1

    def test_member_rows_codec(self):
        rows = [[3, 1, 2], [], [7]]
        arrays, meta = member_rows_to_arrays(rows)
        assert member_rows_from_arrays(arrays, meta) == rows

    def test_edge_pair_codec(self, tmp_path):
        from repro.gpu.kernels import pack_edges
        from repro.hierarchy.edgepack import EdgeBufferPair

        bufs = pack_edges([Polygon.from_rect_coords(0, 0, 10, 4)])
        pair = EdgeBufferPair(bufs["v"], bufs["h"], 1)
        store = PackStore(str(tmp_path))
        arrays, meta = edge_pair_to_arrays(pair)
        store.save("k" * 64, arrays, meta)
        decoded = store.load("k" * 64, edge_pair_from_arrays)
        for got, want in ((decoded.vertical, pair.vertical), (decoded.horizontal, pair.horizontal)):
            np.testing.assert_array_equal(got.fixed, want.fixed)
            np.testing.assert_array_equal(got.lo, want.lo)
            np.testing.assert_array_equal(got.hi, want.hi)
            np.testing.assert_array_equal(got.interior, want.interior)
            np.testing.assert_array_equal(got.poly, want.poly)
        assert decoded.num_polygons == 1

    def test_corners_codec(self, tmp_path):
        from repro.gpu.kernels import pack_corners

        buf = pack_corners([Polygon.from_rect_coords(0, 0, 10, 4)])
        buf.segment = np.zeros(len(buf), dtype=np.int64)
        store = PackStore(str(tmp_path))
        arrays, meta = corners_to_arrays(buf)
        store.save("c" * 64, arrays, meta)
        decoded = store.load("c" * 64, corners_from_arrays)
        np.testing.assert_array_equal(decoded.x, buf.x)
        np.testing.assert_array_equal(decoded.segment, buf.segment)

    def test_rect_rows_codec(self, tmp_path):
        rows = [
            RectBuffer(np.asarray([[0, 0, 4, 4]], dtype=np.int64), True),
            RectBuffer.empty(),
            RectBuffer(np.asarray([[1, 1, 9, 9], [2, 2, 3, 3]], dtype=np.int64), False),
        ]
        store = PackStore(str(tmp_path))
        arrays, meta = rect_rows_to_arrays(rows)
        store.save("r" * 64, arrays, meta)
        decoded = store.load("r" * 64, rect_rows_from_arrays)
        assert len(decoded) == 3
        for got, want in zip(decoded, rows):
            np.testing.assert_array_equal(got.rects, want.rects)
            assert got.all_rect == want.all_rect


class TestCorruption:
    def _seed_entry(self, store):
        key = store_key("test", "digest")
        store.save(key, {"a": np.arange(64, dtype=np.int64)}, {})
        return key, store._entry_path(key)

    @pytest.mark.parametrize("damage", ["truncate", "magic", "header", "version"])
    def test_damaged_entry_misses_and_is_dropped(self, tmp_path, damage):
        store = PackStore(str(tmp_path))
        key, path = self._seed_entry(store)
        data = bytearray(open(path, "rb").read())
        if damage == "truncate":
            data = data[: len(data) // 2]
        elif damage == "magic":
            data[:8] = b"XXXXXXXX"
        elif damage == "header":
            data[20] = (data[20] + 1) % 256  # breaks the JSON
        else:
            header_len = int(np.frombuffer(bytes(data[8:16]), dtype="<u8")[0])
            header = json.loads(bytes(data[16 : 16 + header_len]))
            header["version"] = 999
            blob = json.dumps(header).encode()
            # keep length plausible by rewriting header_len too
            data[8:16] = np.uint64(len(blob)).tobytes()
            data = data[:16] + blob + data[16 + header_len :]
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        assert store.load(key, lambda a, m: a) is None
        assert store.misses == 1
        assert not os.path.exists(path)  # corrupt entry dropped
        # The cold path rewrites it and the next read hits.
        store.save(key, {"a": np.arange(64, dtype=np.int64)}, {})
        assert store.load(key, lambda a, m: dict(a)) is not None

    def test_decode_error_counts_as_miss_and_drops(self, tmp_path):
        store = PackStore(str(tmp_path))
        key, path = self._seed_entry(store)

        def bad_decode(arrays, meta):
            raise KeyError("codec moved on")

        assert store.load(key, bad_decode) is None
        assert store.misses == 1
        assert not os.path.exists(path)

    def test_corrupt_entries_are_counted(self, tmp_path):
        store = PackStore(str(tmp_path))
        key, path = self._seed_entry(store)
        with open(path, "r+b") as fh:
            fh.truncate(10)
        assert store.load(key, lambda a, m: a) is None
        assert store.corrupt == 1
        assert store.counters()["corrupt"] == 1
        # Plain cache misses are not corruption.
        assert store.load("f" * 64, lambda a, m: a) is None
        assert store.corrupt == 1

    def test_corrupt_counter_persists(self, tmp_path):
        store = PackStore(str(tmp_path))
        key, path = self._seed_entry(store)
        with open(path, "r+b") as fh:
            fh.truncate(10)
        store.load(key, lambda a, m: a)
        store.persist_counters()
        assert PackStore(str(tmp_path)).persisted_counters()["corrupt"] == 1

    def test_drop_of_missing_entry_is_quiet(self, tmp_path):
        # Two processes can race to drop the same corrupt entry; losing the
        # race (ENOENT) must not raise.
        store = PackStore(str(tmp_path))
        key, path = self._seed_entry(store)
        store._drop(key)
        assert not os.path.exists(path)
        store._drop(key)  # already gone
        store._drop("0" * 64)  # never existed

    def test_injected_corruption_damages_the_real_file(self, tmp_path):
        # The packstore_corrupt fault site corrupts the on-disk entry, so
        # the store's genuine recovery path (not a simulation) runs.
        from repro.util import faults

        store = PackStore(str(tmp_path))
        key, path = self._seed_entry(store)
        faults.install("packstore_corrupt:times=1")
        try:
            assert store.load(key, lambda a, m: a) is None
            assert store.corrupt == 1
            assert not os.path.exists(path)  # dropped after the damage
            # Budget spent: the rewritten entry reads back clean.
            store.save(key, {"a": np.arange(64, dtype=np.int64)}, {})
            assert store.load(key, lambda a, m: dict(a)) is not None
            assert store.corrupt == 1
        finally:
            faults.clear()

    def test_engine_recovers_from_corrupted_store(self, tmp_path):
        layout = build_design("uart", "ci")
        rules = asap7.spacing_deck()
        opts = lambda: EngineOptions(mode="parallel", cache_dir=str(tmp_path))  # noqa: E731
        baseline = Engine(options=EngineOptions(mode="parallel")).check(
            layout, rules=rules
        )
        Engine(options=opts()).check(layout, rules=rules)
        store = PackStore(str(tmp_path))
        entries = store.entries()
        assert entries
        for key, _ in entries:
            path = store._entry_path(key)
            with open(path, "r+b") as fh:
                fh.truncate(10)
        # The stored report would answer before any pack entry is read.
        ReportCache(store).clear()
        report = Engine(options=opts()).check(layout, rules=rules)
        assert report.to_csv() == baseline.to_csv()
        # Every entry was rewritten by the cold path.
        for key, nbytes in PackStore(str(tmp_path)).entries():
            assert nbytes > 16


def _writer(args):
    root, key, value = args
    store = PackStore(root)
    store.save(key, {"a": np.full(4096, value, dtype=np.int64)}, {"writer": value})
    return True


class TestConcurrency:
    def test_concurrent_writers_leave_a_readable_store(self, tmp_path):
        key = store_key("race", "digest")
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            results = pool.map(
                _writer, [(str(tmp_path), key, 1), (str(tmp_path), key, 2)]
            )
        assert all(results)
        store = PackStore(str(tmp_path))
        loaded = store.load(key, lambda arrays, meta: (dict(arrays), meta))
        assert loaded is not None
        arrays, meta = loaded
        # Last rename wins: the entry is one writer's complete payload.
        assert meta["writer"] in (1, 2)
        assert set(np.unique(arrays["a"]).tolist()) == {meta["writer"]}
        # No temp droppings survive.
        leftovers = [
            name
            for _, _, files in os.walk(tmp_path)
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []


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


class TestMaintenance:
    def test_entries_total_bytes_and_clear(self, tmp_path):
        store = PackStore(str(tmp_path))
        for i in range(3):
            store.save(store_key("k", i), {"a": np.arange(32, dtype=np.int64)}, {})
        assert len(store.entries()) == 3
        assert store.total_bytes > 0
        assert store.clear() == 3
        assert store.entries() == []

    def test_persist_counters_is_idempotent(self, tmp_path):
        store = PackStore(str(tmp_path))
        store.save(store_key("k"), {"a": np.arange(32, dtype=np.int64)}, {})
        store.load(store_key("k"), lambda a, m: a)
        store.persist_counters()
        store.persist_counters()  # no new delta: must not double count
        totals = store.persisted_counters()
        assert totals["hits"] == 1
        other = PackStore(str(tmp_path))
        other.load(store_key("k"), lambda a, m: a)
        other.persist_counters()
        assert PackStore(str(tmp_path)).persisted_counters()["hits"] == 2

import random

import pytest

from repro.geometry import EMPTY_RECT, Rect
from benchmarks.rtree import RTree


def random_entries(seed, n=200, extent=1000):
    rng = random.Random(seed)
    entries = []
    for i in range(n):
        x, y = rng.randint(0, extent), rng.randint(0, extent)
        entries.append((Rect(x, y, x + rng.randint(1, 50), y + rng.randint(1, 50)), i))
    return entries


class TestConstruction:
    def test_empty(self):
        tree = RTree([])
        assert len(tree) == 0 and tree.query(Rect(0, 0, 10, 10)) == []

    def test_single(self):
        tree = RTree([(Rect(0, 0, 10, 10), "a")])
        assert tree.query(Rect(5, 5, 6, 6)) == ["a"]

    def test_empty_rects_dropped(self):
        tree = RTree([(EMPTY_RECT, "ghost"), (Rect(0, 0, 1, 1), "real")])
        assert len(tree) == 1

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            RTree([], fanout=1)

    def test_height_grows_logarithmically(self):
        small = RTree(random_entries(0, n=10), fanout=4)
        large = RTree(random_entries(0, n=500), fanout=4)
        assert small.height < large.height <= 6


class TestQueries:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fanout", [4, 16])
    def test_matches_linear_scan(self, seed, fanout):
        entries = random_entries(seed)
        tree = RTree(entries, fanout=fanout)
        rng = random.Random(seed + 100)
        for _ in range(25):
            x, y = rng.randint(0, 1000), rng.randint(0, 1000)
            window = Rect(x, y, x + rng.randint(0, 200), y + rng.randint(0, 200))
            expected = sorted(i for rect, i in entries if rect.overlaps(window))
            assert sorted(tree.query(window)) == expected

    def test_touching_window_counts(self):
        tree = RTree([(Rect(0, 0, 10, 10), "a")])
        assert tree.query(Rect(10, 0, 20, 10)) == ["a"]

    def test_empty_window(self):
        tree = RTree(random_entries(1))
        assert tree.query(EMPTY_RECT) == []

    def test_query_count_prunes(self):
        entries = random_entries(2, n=1000, extent=10_000)
        tree = RTree(entries)
        hits, visited = tree.query_count(Rect(0, 0, 100, 100))
        total_nodes = 1 + len(entries) // tree.fanout
        assert visited < total_nodes  # BVH pruning actually happened


class TestPairs:
    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_match_sweepline(self, seed):
        from repro.spatial import iter_overlapping_pairs

        entries = random_entries(seed, n=120)
        rects = [rect for rect, _ in entries]
        tree = RTree(entries)
        assert sorted(tree.overlapping_pairs()) == sorted(iter_overlapping_pairs(rects))

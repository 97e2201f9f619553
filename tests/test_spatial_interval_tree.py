import random

import pytest

from benchmarks.interval_tree import IntervalTree, tree_sweep_pairs
from repro.geometry import EMPTY_RECT, Rect
from repro.spatial import iter_overlapping_pairs


def brute(intervals, qlo, qhi):
    return sorted(item for lo, hi, item in intervals if lo <= qhi and qlo <= hi)


class TestBasics:
    def test_insert_query(self):
        tree = IntervalTree([0, 5, 10])
        tree.insert(0, 4, "a")
        tree.insert(5, 9, "b")
        assert sorted(tree.query(3, 6)) == ["a", "b"]
        assert tree.query(10, 20) == []

    def test_closed_overlap_semantics(self):
        tree = IntervalTree([0])
        tree.insert(0, 5, "a")
        assert tree.query(5, 9) == ["a"]  # touching counts
        assert tree.query(6, 9) == []

    def test_stab(self):
        tree = IntervalTree([0, 10])
        tree.insert(0, 10, "a")
        tree.insert(10, 20, "b")
        assert sorted(tree.stab(10)) == ["a", "b"]

    def test_remove(self):
        tree = IntervalTree([0, 5])
        tree.insert(0, 9, "a")
        tree.insert(5, 9, "b")
        tree.remove(0, 9, "a")
        assert tree.query(0, 100) == ["b"]
        assert len(tree) == 1

    def test_remove_missing_raises(self):
        tree = IntervalTree([0])
        with pytest.raises(KeyError):
            tree.remove(0, 5, "ghost")

    def test_duplicate_intervals_distinct_items(self):
        tree = IntervalTree([0])
        tree.insert(0, 5, "a")
        tree.insert(0, 5, "b")
        assert sorted(tree.query(2, 3)) == ["a", "b"]
        tree.remove(0, 5, "a")
        assert tree.query(2, 3) == ["b"]

    def test_inverted_interval_rejected(self):
        tree = IntervalTree([0])
        with pytest.raises(ValueError):
            tree.insert(5, 0, "x")

    def test_inverted_query_rejected(self):
        tree = IntervalTree([0])
        with pytest.raises(ValueError):
            tree.query(5, 0)

    def test_interval_outside_skeleton_rejected(self):
        tree = IntervalTree([100])
        with pytest.raises(ValueError):
            tree.insert(0, 5, "x")

    def test_items_lists_all(self):
        tree = IntervalTree([0, 7])
        tree.insert(0, 3, "a")
        tree.insert(7, 9, "b")
        assert sorted(item for _, _, item in tree.items()) == ["a", "b"]


class TestRandomizedAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_workload(self, seed):
        rng = random.Random(seed)
        keys = [rng.randint(0, 200) for _ in range(100)]
        tree = IntervalTree(keys)
        live = []
        for step in range(300):
            action = rng.random()
            if action < 0.5 or not live:
                lo = rng.choice(keys)
                hi = lo + rng.randint(0, 40)
                item = step
                tree.insert(lo, hi, item)
                live.append((lo, hi, item))
            elif action < 0.7:
                lo, hi, item = live.pop(rng.randrange(len(live)))
                tree.remove(lo, hi, item)
            else:
                qlo = rng.randint(0, 220)
                qhi = qlo + rng.randint(0, 60)
                assert sorted(tree.query(qlo, qhi)) == brute(live, qlo, qhi)
        assert len(tree) == len(live)


class TestTreeSweep:
    """The Fig. 3 sweep the ablation measures finds what the engine's scan finds."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pairs_match_the_scan(self, seed):
        rng = random.Random(seed)
        rects = [EMPTY_RECT]
        for _ in range(150):
            x, y = rng.randint(0, 300), rng.randint(0, 300)
            rects.append(Rect(x, y, x + rng.randint(0, 40), y + rng.randint(0, 40)))
        assert sorted(tree_sweep_pairs(rects)) == sorted(iter_overlapping_pairs(rects))

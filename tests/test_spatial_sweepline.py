import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.geometry import EMPTY_RECT, Rect
from repro.spatial import (
    iter_bipartite_overlaps,
    iter_overlapping_pairs,
    report_overlapping_pairs,
)
from repro.spatial.sweepline import _scan_order


def overlaps(a, b):
    """Closed overlap of two ``(xlo, ylo, xhi, yhi)`` boxes; empty ones never overlap."""
    axlo, aylo, axhi, ayhi = a
    bxlo, bylo, bxhi, byhi = b
    return (
        axlo <= axhi and aylo <= ayhi and bxlo <= bxhi and bylo <= byhi
        and bxlo <= axhi and axlo <= bxhi and bylo <= ayhi and aylo <= byhi
    )


def brute_force_pairs(rects):
    """Quadratic reference for :func:`iter_overlapping_pairs`."""
    return [
        (i, j)
        for i in range(len(rects))
        for j in range(i + 1, len(rects))
        if overlaps(rects[i], rects[j])
    ]


def brute_force_bipartite(left, right):
    """Quadratic reference for :func:`iter_bipartite_overlaps`."""
    return [(i, j) for i, a in enumerate(left) for j, b in enumerate(right) if overlaps(a, b)]


def random_rects(rng, n, extent=300, max_size=40):
    out = []
    for _ in range(n):
        x, y = rng.randint(0, extent), rng.randint(0, extent)
        out.append(Rect(x, y, x + rng.randint(0, max_size), y + rng.randint(0, max_size)))
    return out


def transpose(boxes):
    return [(ylo, xlo, yhi, xhi) for xlo, ylo, xhi, yhi in boxes]


# -- generators -------------------------------------------------------------------

INT32_EDGES = (-(2**31), -(2**31) + 1, 2**31 - 2, 2**31 - 1)

#: A small grid makes equal ``lo``s, edge and corner contact and duplicates
#: common; the int32 edges reach the extremes of a GDSII coordinate.
coords = st.one_of(st.integers(0, 12), st.sampled_from(INT32_EDGES))

#: Four independent coordinates: some boxes come out empty (``lo > hi``) and
#: some zero-width or zero-height.
loose_boxes = st.tuples(coords, coords, coords, coords)


@st.composite
def tracks(draw):
    """A full-width horizontal track over the grid."""
    y = draw(st.integers(0, 12))
    return (0, y, 12, y + draw(st.integers(0, 2)))


@st.composite
def populations(draw):
    boxes = draw(st.lists(st.one_of(loose_boxes, tracks()), max_size=30))
    if boxes:
        boxes += draw(st.lists(st.sampled_from(boxes), max_size=6))  # duplicates
    if draw(st.booleans()):
        boxes = transpose(boxes)
    return draw(st.permutations(boxes))


class TestScanProperties:
    @settings(max_examples=150, deadline=None)
    @given(populations())
    def test_single_equals_brute_force(self, rects):
        pairs = list(iter_overlapping_pairs(rects))
        assert len(pairs) == len(set(pairs))
        assert all(i < j for i, j in pairs)
        assert set(pairs) == set(brute_force_pairs(rects))

    @settings(max_examples=150, deadline=None)
    @given(populations(), populations())
    def test_bipartite_equals_brute_force(self, left, right):
        pairs = list(iter_bipartite_overlaps(left, right))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == set(brute_force_bipartite(left, right))

    @settings(max_examples=60, deadline=None)
    @given(populations())
    def test_bipartite_against_itself_is_every_pair_both_ways(self, rects):
        # Equal ``lo`` on both sides everywhere: the tie rule must still
        # report each cross pair once.
        expected = {(i, j) for i, j in brute_force_pairs(rects)}
        expected |= {(j, i) for i, j in expected}
        expected |= {(i, i) for i, box in enumerate(rects) if overlaps(box, box)}
        pairs = list(iter_bipartite_overlaps(rects, rects))
        assert len(pairs) == len(set(pairs)) and set(pairs) == expected


class TestAxisChoice:
    TRACKS = [(0, 10 * k, 10_000, 10 * k + 4) for k in range(50)]
    VIAS = [(200 * k, 3, 200 * k + 2, 5) for k in range(50)]

    def test_horizontal_tracks_sweep_on_y(self):
        boxes = self.TRACKS + self.VIAS
        (keyed,) = _scan_order(boxes)
        assert all(key[:4] == (ylo, yhi, xlo, xhi) for key in keyed
                   for xlo, ylo, xhi, yhi in [boxes[key[4]]])

    def test_vertical_tracks_sweep_on_x(self):
        boxes = transpose(self.TRACKS + self.VIAS)
        left, right = _scan_order(boxes[:50], boxes[50:])
        for side, keyed in ((boxes[:50], left), (boxes[50:], right)):
            assert all(key[:4] == (xlo, xhi, ylo, yhi) for key in keyed
                       for xlo, ylo, xhi, yhi in [side[key[4]]])


class Counted(int):
    """An int that counts the ``<=``/``>=`` tests it takes part in."""

    tests = 0

    def __le__(self, other):
        Counted.tests += 1
        return int.__le__(self, other)

    def __ge__(self, other):
        Counted.tests += 1
        return int.__ge__(self, other)


def counted(boxes):
    return [tuple(map(Counted, box)) for box in boxes]


class TestScanWork:
    """The scan tests the other axis only for boxes that meet on the sweep
    axis: a single-axis scan that ignores the layout's shape, or a quadratic
    fork for small inputs, does many times more tests than these bounds."""

    def count_tests(self, run):
        Counted.tests = 0
        run()
        return Counted.tests

    def test_tracks_and_vias_in_either_orientation(self):
        boxes = [(0, 10 * k, 100_000, 10 * k + 4) for k in range(200)]
        boxes += [(150 * k, 10 * (k % 200) + 6, 150 * k + 2, 10 * (k % 200) + 8)
                  for k in range(500)]
        for population in (boxes, transpose(boxes)):
            population = counted(population)
            assert list(iter_overlapping_pairs(population)) == []
            assert self.count_tests(lambda: list(iter_overlapping_pairs(population))) < 10 * 700
            tests = self.count_tests(
                lambda: list(iter_bipartite_overlaps(population[:200], population[200:]))
            )
            assert tests < 10 * 700

    def test_small_disjoint_sides_pair_nothing(self):
        left = counted([(20 * k, 20 * k, 20 * k + 5, 20 * k + 5) for k in range(30)])
        right = counted([(20 * k + 10, 20 * k + 10, 20 * k + 15, 20 * k + 15) for k in range(30)])
        pairs = []
        # Two emptiness tests and two merge tests per box, and no other-axis
        # test at all: a double loop would test each of the 900 pairs.
        assert self.count_tests(lambda: pairs.extend(iter_bipartite_overlaps(left, right))) <= 4 * 60
        assert pairs == []


class TestOverlappingPairs:
    def test_simple_overlap(self):
        rects = [Rect(0, 0, 10, 10), Rect(5, 5, 15, 15), Rect(100, 100, 110, 110)]
        assert report_overlapping_pairs(rects) == [(0, 1)]

    def test_touching_rects_reported(self):
        # Closed-overlap semantics: the engine inflates by rule distance
        # first, so boundary contact must be reported.
        assert report_overlapping_pairs([Rect(0, 0, 5, 5), Rect(5, 0, 9, 5)]) == [(0, 1)]

    def test_vertical_touch_reported(self):
        assert report_overlapping_pairs([Rect(0, 0, 5, 5), Rect(0, 5, 5, 9)]) == [(0, 1)]

    def test_corner_touch_reported(self):
        assert report_overlapping_pairs([Rect(0, 0, 5, 5), Rect(5, 5, 9, 9)]) == [(0, 1)]

    def test_each_pair_once(self):
        rects = [Rect(0, 0, 10, 10)] * 3
        pairs = report_overlapping_pairs(rects)
        assert sorted(pairs) == [(0, 1), (0, 2), (1, 2)]

    def test_empty_rects_skipped(self):
        rects = [Rect(0, 0, 10, 10), EMPTY_RECT, Rect(5, 5, 15, 15)]
        assert report_overlapping_pairs(rects) == [(0, 2)]

    def test_no_rects(self):
        assert report_overlapping_pairs([]) == []

    def test_plain_tuples(self):
        assert report_overlapping_pairs([(0, 0, 5, 5), (5, 5, 9, 9), (6, 0, 9, 4)]) == [(0, 1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rects = random_rects(random.Random(seed), 150)
        assert sorted(iter_overlapping_pairs(rects)) == brute_force_pairs(rects)


class TestBipartite:
    def test_cross_pairs_only(self):
        left = [Rect(0, 0, 10, 10), Rect(100, 0, 110, 10)]
        right = [Rect(5, 5, 15, 15), Rect(6, 6, 7, 7)]
        pairs = sorted(iter_bipartite_overlaps(left, right))
        assert pairs == [(0, 0), (0, 1)]

    def test_within_side_not_reported(self):
        left = [Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)]
        right = [Rect(1000, 1000, 1001, 1001)]
        assert list(iter_bipartite_overlaps(left, right)) == []

    def test_an_empty_side_pairs_nothing(self):
        assert list(iter_bipartite_overlaps([], [Rect(0, 0, 1, 1)])) == []
        assert list(iter_bipartite_overlaps([EMPTY_RECT], [Rect(0, 0, 1, 1)])) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        left = random_rects(rng, 80)
        right = random_rects(rng, 70)
        assert sorted(iter_bipartite_overlaps(left, right)) == brute_force_bipartite(left, right)

"""Property-based tests (hypothesis) on the core data structures and invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.geometry import Interval, Point, Polygon, Rect, Transform, coalesce
from repro.geometry.booleans import union_rects
from repro.spatial import iter_overlapping_pairs, merge_intervals_pigeonhole
from repro.partition import mbr_table, partition_rects
from benchmarks.interval_tree import IntervalTree

from .test_spatial_sweepline import brute_force_pairs

coords = st.integers(min_value=-1000, max_value=1000)
sizes = st.integers(min_value=0, max_value=80)
positive_sizes = st.integers(min_value=1, max_value=80)


@st.composite
def rects(draw):
    x = draw(coords)
    y = draw(coords)
    return Rect(x, y, x + draw(sizes), y + draw(sizes))


@st.composite
def solid_rects(draw):
    x = draw(coords)
    y = draw(coords)
    return Rect(x, y, x + draw(positive_sizes), y + draw(positive_sizes))


@st.composite
def intervals(draw):
    lo = draw(coords)
    return Interval(lo, lo + draw(sizes))


@st.composite
def transforms(draw):
    return Transform(
        dx=draw(coords),
        dy=draw(coords),
        rotation=draw(st.sampled_from([0, 90, 180, 270])),
        mirror_x=draw(st.booleans()),
    )


class TestRectProperties:
    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a) and u.contains_rect(b)

    @given(rects(), rects())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(rects(), rects())
    def test_intersection_inside_both(self, a, b):
        inter = a.intersection(b)
        if not inter.is_empty:
            assert a.contains_rect(inter) and b.contains_rect(inter)

    @given(rects(), st.integers(min_value=0, max_value=50))
    def test_inflate_monotone(self, r, margin):
        if not r.is_empty:
            assert r.inflated(margin).contains_rect(r)

    @given(rects(), rects())
    def test_gap_zero_iff_overlap(self, a, b):
        if not a.is_empty and not b.is_empty:
            assert (a.gap_to(b) == 0) == a.overlaps(b)


class TestIntervalMergeProperties:
    @given(st.lists(intervals(), max_size=60))
    def test_pigeonhole_equals_sorted(self, ivs):
        assert merge_intervals_pigeonhole(ivs) == coalesce(ivs)

    @given(st.lists(intervals(), min_size=1, max_size=60))
    def test_cover_and_disjointness(self, ivs):
        merged = merge_intervals_pigeonhole(ivs)
        for a, b in zip(merged, merged[1:]):
            assert a.hi < b.lo
        for iv in ivs:
            assert any(m.lo <= iv.lo and iv.hi <= m.hi for m in merged)

    @given(st.lists(intervals(), min_size=1, max_size=60))
    def test_total_length_preserved(self, ivs):
        merged = merge_intervals_pigeonhole(ivs)
        covered = set()
        for iv in ivs:
            covered.update(range(iv.lo, iv.hi + 1))
        merged_points = set()
        for m in merged:
            merged_points.update(range(m.lo, m.hi + 1))
        assert covered == merged_points


class TestSweeplineProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(rects(), max_size=40))
    def test_matches_brute_force(self, population):
        assert sorted(iter_overlapping_pairs(population)) == sorted(
            brute_force_pairs(population)
        )


class TestIntervalTreeProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(intervals(), min_size=1, max_size=40),
        st.lists(intervals(), min_size=1, max_size=10),
    )
    def test_queries_match_linear_scan(self, stored, queries):
        tree = IntervalTree([iv.lo for iv in stored])
        for index, iv in enumerate(stored):
            tree.insert(iv.lo, iv.hi, index)
        for q in queries:
            expected = sorted(
                i for i, iv in enumerate(stored) if iv.lo <= q.hi and q.lo <= iv.hi
            )
            assert sorted(tree.query(q.lo, q.hi)) == expected


class TestPartitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(solid_rects(), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=40))
    def test_rows_partition_and_separate(self, population, rule):
        part = partition_rects(mbr_table(population), rule)
        members = sorted(m for row in part.rows for m in row.members)
        assert members == list(range(len(population)))
        owner = part.row_of()
        for i, a in enumerate(population):
            for j in range(i + 1, len(population)):
                if owner[i] != owner[j]:
                    gap = max(population[j].ylo - a.yhi, a.ylo - population[j].yhi)
                    assert gap >= rule


class TestUnionProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(solid_rects(), max_size=20))
    def test_area_bounds(self, population):
        u = union_rects(population)
        total = sum(r.area for r in population)
        biggest = max((r.area for r in population), default=0)
        assert biggest <= u.area <= total

    @settings(max_examples=30, deadline=None)
    @given(st.lists(solid_rects(), min_size=1, max_size=12))
    def test_sample_points_agree(self, population):
        u = union_rects(population)
        for r in population:
            cx, cy = r.center
            assert u.contains_point(cx, cy)


class TestTransformProperties:
    @given(transforms(), st.lists(st.tuples(coords, coords), min_size=2, max_size=6))
    def test_rigid_transform_preserves_distances(self, t, points):
        ps = [Point(x, y) for x, y in points]
        moved = [t.apply(p) for p in ps]
        for a, b, ma, mb in zip(ps, ps[1:], moved, moved[1:]):
            assert a.euclidean_distance_squared(b) == ma.euclidean_distance_squared(mb)

    @given(transforms(), transforms(), st.tuples(coords, coords))
    def test_compose_associative_on_points(self, outer, inner, xy):
        p = Point(*xy)
        assert outer.compose(inner).apply(p) == outer.apply(inner.apply(p))

    @given(transforms())
    def test_invert_roundtrip(self, t):
        from repro.hierarchy import invert

        inverse = invert(t)
        for p in (Point(0, 0), Point(17, -3)):
            assert inverse.apply(t.apply(p)) == p


class TestPolygonProperties:
    @given(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=100),
        transforms(),
    )
    def test_rect_polygon_area_invariant(self, x, y, w, h, t):
        poly = Polygon.from_rect_coords(x, y, x + w, y + h)
        assert poly.transformed(t).area == poly.area

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
    )
    def test_rect_area_formula(self, w, h):
        assert Polygon.from_rect_coords(0, 0, w, h).area == w * h

import dataclasses
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.checks import check_spacing, check_width
from repro.layout.flatten import polygon_rings
from repro.geometry import Polygon, Rect
from repro.gpu import kernels as K
from repro.gpu import (
    kernel_area,
    kernel_enclosure_margins,
    kernel_pairs_bruteforce,
    kernel_pairs_sweep,
    kernel_sweep_ranges,
    pack_edges,
    pack_vertices,
    reduce_enclosure_best,
)


def random_rects(seed, n=60, extent=400):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x, y = rng.randint(0, extent), rng.randint(0, extent)
        out.append(
            Polygon.from_rect_coords(x, y, x + rng.randint(2, 30), y + rng.randint(2, 30))
        )
    return out


def hits_to_set(hits_list):
    out = set()
    for hits in hits_list:
        for k in range(len(hits)):
            out.add(
                (
                    Rect(int(hits.xlo[k]), int(hits.ylo[k]), int(hits.xhi[k]), int(hits.yhi[k])),
                    int(hits.measured[k]),
                )
            )
    return out


class TestPackEdges:
    def test_rectangle_split_by_orientation(self):
        bufs = pack_edges([Polygon.from_rect_coords(0, 0, 10, 4)])
        assert len(bufs["v"]) == 2 and len(bufs["h"]) == 2

    def test_interior_signs(self):
        bufs = pack_edges([Polygon.from_rect_coords(0, 0, 10, 4)])
        v = bufs["v"]
        by_x = dict(zip(v.fixed.tolist(), v.interior.tolist()))
        assert by_x == {0: 1, 10: -1}  # left edge interior east, right west
        h = bufs["h"]
        by_y = dict(zip(h.fixed.tolist(), h.interior.tolist()))
        assert by_y == {0: 1, 4: -1}

    def test_poly_ids_default_to_index(self):
        bufs = pack_edges(random_rects(0, n=5))
        assert set(bufs["v"].poly.tolist()) == set(range(5))

    def test_explicit_poly_ids(self):
        bufs = pack_edges(random_rects(0, n=3), poly_ids=[7, 8, 9])
        assert set(bufs["v"].poly.tolist()) == {7, 8, 9}

    def test_empty(self):
        bufs = pack_edges([])
        assert len(bufs["v"]) == 0 and len(bufs["h"]) == 0


class TestPairKernelsAgainstHost:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("threshold", [5, 12, 25])
    def test_spacing_bruteforce_matches_host(self, seed, threshold):
        polys = random_rects(seed)
        host = {(v.region, v.measured) for v in check_spacing(polygon_rings(polys), 1, threshold)}
        bufs = pack_edges(polys)
        hits = [
            kernel_pairs_bruteforce(bufs["v"], threshold, want_width=False),
            kernel_pairs_bruteforce(bufs["h"], threshold, want_width=False),
        ]
        assert hits_to_set(hits) == host

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("threshold", [5, 12, 25])
    def test_sweep_matches_bruteforce(self, seed, threshold):
        polys = random_rects(seed + 50, n=120)
        bufs = pack_edges(polys)
        for key in ("v", "h"):
            brute = hits_to_set([kernel_pairs_bruteforce(bufs[key], threshold, want_width=False)])
            sweep = hits_to_set([kernel_pairs_sweep(bufs[key], threshold, want_width=False)])
            assert brute == sweep

    @pytest.mark.parametrize("seed", range(3))
    def test_width_matches_host(self, seed):
        rng = random.Random(seed)
        polys = []
        for i in range(30):
            x = i * 100
            polys.append(
                Polygon.from_rect_coords(x, 0, x + rng.randint(2, 20), rng.randint(30, 90))
            )
        threshold = 12
        host = {(v.region, v.measured) for v in check_width(polygon_rings(polys), 1, threshold)}
        bufs = pack_edges(polys)
        hits = [
            kernel_pairs_bruteforce(bufs["v"], threshold, want_width=True),
            kernel_pairs_bruteforce(bufs["h"], threshold, want_width=True),
        ]
        assert hits_to_set(hits) == host

    def test_width_requires_same_polygon(self):
        # Two narrow rects close together: interior-facing pairs exist only
        # within each polygon, not across.
        polys = [
            Polygon.from_rect_coords(0, 0, 5, 100),
            Polygon.from_rect_coords(8, 0, 13, 100),
        ]
        bufs = pack_edges(polys)
        hits = kernel_pairs_bruteforce(bufs["v"], 50, want_width=True)
        assert sorted(hits.measured.tolist()) == [5, 5]

    def test_chunking_does_not_change_results(self):
        polys = random_rects(9, n=80)
        bufs = pack_edges(polys)
        a = hits_to_set([kernel_pairs_bruteforce(bufs["v"], 15, want_width=False, chunk=7)])
        b = hits_to_set([kernel_pairs_bruteforce(bufs["v"], 15, want_width=False, chunk=4096)])
        assert a == b

    def test_empty_buffer(self):
        bufs = pack_edges([])
        assert len(kernel_pairs_bruteforce(bufs["v"], 10, want_width=False)) == 0
        assert len(kernel_pairs_sweep(bufs["v"], 10, want_width=False)) == 0


class TestSweepRanges:
    def test_ranges_cover_rule_window(self):
        polys = random_rects(3, n=40)
        buf = pack_edges(polys)["v"].sorted_by_fixed()
        begin, end = kernel_sweep_ranges(buf, 10)
        fixed = buf.fixed
        for i in range(len(buf)):
            for j in range(len(buf)):
                gap = fixed[j] - fixed[i]
                if 1 <= gap <= 9:
                    assert begin[i] <= j < end[i]
                if gap <= 0:
                    assert not (begin[i] <= j < end[i])


class TestAreaKernel:
    def test_matches_shoelace(self):
        polys = random_rects(4, n=30)
        polys.append(Polygon([(0, 500), (0, 530), (10, 530), (10, 510), (25, 510), (25, 500)]))
        buf = pack_vertices(polys)
        areas = kernel_area(buf)
        assert [int(a) for a in areas] == [p.area for p in polys]

    def test_empty(self):
        assert len(kernel_area(pack_vertices([]))) == 0


class TestEnclosureKernel:
    def test_margins(self):
        vias = np.asarray([[10, 10, 14, 14]], dtype=np.int64)
        metals = np.asarray([[5, 5, 19, 19], [9, 12, 15, 16]], dtype=np.int64)
        pair_via = np.asarray([0, 0], dtype=np.int64)
        pair_metal = np.asarray([0, 1], dtype=np.int64)
        margins = kernel_enclosure_margins(vias, metals, pair_via, pair_metal)
        # Second metal does not contain the via: its margin is negative.
        assert margins.tolist() == [5, -2]

    def test_reduce_best(self):
        pair_via = np.asarray([0, 0, 1], dtype=np.int64)
        margins = np.asarray([2, 5, -3], dtype=np.int64)
        best = reduce_enclosure_best(3, pair_via, margins)
        assert best.tolist() == [5, -1, -1]

    def test_empty_pairs(self):
        margins = kernel_enclosure_margins(
            np.zeros((2, 4), dtype=np.int64),
            np.zeros((0, 4), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert len(margins) == 0


class TestTriangularEnumeration:
    """The brute-force kernel's upper-triangular pair enumeration must be
    hit-for-hit identical to the reference full chunk×n product + mask."""

    @staticmethod
    def _reference_full_product(buf, threshold, *, want_width, chunk=1024):
        from repro.gpu.kernels import PairHits, _evaluate_pairs

        n = len(buf)
        if n < 2:
            return PairHits.empty()
        batches = []
        all_idx = np.arange(n, dtype=np.int64)
        for start in range(0, n, chunk):
            rows = all_idx[start : start + chunk]
            a = np.repeat(rows, n)
            b = np.tile(all_idx, len(rows))
            keep = buf.fixed[a] < buf.fixed[b]
            batches.append(
                _evaluate_pairs(buf, a[keep], b[keep], threshold, want_width=want_width)
            )
        return PairHits.concatenate(batches)

    @staticmethod
    def _canonical(hits):
        return sorted(
            zip(
                hits.xlo.tolist(), hits.ylo.tolist(),
                hits.xhi.tolist(), hits.yhi.tolist(),
                hits.measured.tolist(),
                hits.poly_a.tolist(), hits.poly_b.tolist(),
            )
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("threshold", [5, 12, 25])
    def test_spacing_identical_to_full_product(self, seed, threshold):
        bufs = pack_edges(random_rects(seed, n=70))
        for buf in (bufs["v"], bufs["h"]):
            got = kernel_pairs_bruteforce(buf, threshold, want_width=False)
            want = self._reference_full_product(buf, threshold, want_width=False)
            assert self._canonical(got) == self._canonical(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_width_identical_to_full_product(self, seed):
        bufs = pack_edges(random_rects(seed, n=50))
        for buf in (bufs["v"], bufs["h"]):
            got = kernel_pairs_bruteforce(buf, 40, want_width=True)
            want = self._reference_full_product(buf, 40, want_width=True)
            assert self._canonical(got) == self._canonical(want)

    def test_small_chunks_identical(self):
        buf = pack_edges(random_rects(11, n=40))["v"]
        want = self._reference_full_product(buf, 15, want_width=False)
        for chunk in (1, 3, 7, 64):
            got = kernel_pairs_bruteforce(buf, 15, want_width=False, chunk=chunk)
            assert self._canonical(got) == self._canonical(want)

    def test_materializes_half_the_pairs(self):
        # n=40 edges: the triangular enumeration builds n(n-1)/2 = 780 pairs
        # per full pass instead of the reference's chunk-bounded n*n = 1600.
        buf = pack_edges(random_rects(12, n=10))["v"]
        n = len(buf)
        calls = []
        original = K._evaluate_pairs

        def spy(buf_, idx_a, idx_b, threshold, *, want_width):
            calls.append(len(idx_a))
            return original(buf_, idx_a, idx_b, threshold, want_width=want_width)

        K._evaluate_pairs = spy
        try:
            kernel_pairs_bruteforce(buf, 15, want_width=False, chunk=4096)
        finally:
            K._evaluate_pairs = original
        assert sum(calls) == n * (n - 1) // 2


def all_pairs_candidates(via_rects, metal_rects, value, via_segment, metal_segment):
    """Reference: every via against every metal, closed MBR test, same segment."""
    pairs = []
    for i, (vx1, vy1, vx2, vy2) in enumerate(via_rects.tolist()):
        for j, (mx1, my1, mx2, my2) in enumerate(metal_rects.tolist()):
            if via_segment[i] != metal_segment[j]:
                continue
            if (
                vx1 - value <= mx2 and mx1 <= vx2 + value
                and vy1 - value <= my2 and my1 <= vy2 + value
            ):
                pairs.append((i, j))
    return pairs


def random_rect_array(rng, n, *, origin, extent, sizes):
    """``(n, 4)`` rects with the low corner in the extent and a (w, h) drawn
    from ``sizes`` — a list of ``(max width, max height)`` shapes; zero
    widths and heights (degenerate rects) are drawn too."""
    out = np.zeros((n, 4), dtype=np.int64)
    for k in range(n):
        wmax, hmax = rng.choice(sizes)
        x = origin + rng.randint(0, extent)
        y = origin + rng.randint(0, extent)
        out[k] = (x, y, x + rng.randint(0, wmax), y + rng.randint(0, hmax))
    return out


#: name -> (vias, metals, segments, via-only segment ids, metal-only ids,
#: metal (max width, max height) shapes)
CANDIDATE_SHAPES = {
    "one-segment": (40, 60, 1, (), (), [(30, 30)]),
    "many-segments": (60, 80, 7, (), (), [(30, 30)]),
    "one-sided-segments": (50, 50, 5, (5, 6), (7,), [(30, 30)]),
    # Several inflated-via heights tall, and wider than the whole via spread.
    "tall-and-wide-metals": (40, 40, 2, (), (), [(12, 12), (6, 900), (900, 6)]),
    "single-rects": (1, 1, 1, (), (), [(30, 30)]),
}


class TestEnclosureCandidates:
    """The banded range scan finds the all-pairs reference's pair set."""

    @staticmethod
    def case(name, seed, origin):
        vias, metals, segments, via_only, metal_only, shapes = CANDIDATE_SHAPES[name]
        rng = random.Random(f"{name}-{seed}")
        via_rects = random_rect_array(
            rng, vias, origin=origin, extent=120, sizes=[(6, 6)]
        )
        metal_rects = random_rect_array(
            rng, metals, origin=origin, extent=120, sizes=shapes
        )
        via_ids = list(range(segments)) + list(via_only)
        metal_ids = list(range(segments)) + list(metal_only)
        via_segment = np.asarray([rng.choice(via_ids) for _ in range(vias)], dtype=np.int64)
        metal_segment = np.asarray(
            [rng.choice(metal_ids) for _ in range(metals)], dtype=np.int64
        )
        return via_rects, metal_rects, via_segment, metal_segment

    @pytest.mark.parametrize("origin", [0, -1000])
    @pytest.mark.parametrize("value", [0, 3, 40])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(CANDIDATE_SHAPES))
    def test_equals_all_pairs(self, name, seed, value, origin):
        via_rects, metal_rects, via_segment, metal_segment = self.case(name, seed, origin)
        want = all_pairs_candidates(
            via_rects, metal_rects, value, via_segment, metal_segment
        )
        pair_via, pair_metal = K.kernel_enclosure_candidates(
            via_rects, metal_rects, value, via_segment, metal_segment
        )
        assert pair_via.dtype == pair_metal.dtype == np.int64
        got = list(zip(pair_via.tolist(), pair_metal.tolist()))
        assert len(got) == len(set(got))  # a pair seen in two bands comes out once
        assert set(got) == set(want)
        if name != "single-rects" and value:
            assert want

    def test_touching_and_corner_touching_count(self):
        via = np.asarray([[10, 10, 14, 14]], dtype=np.int64)
        metals = np.asarray(
            [
                [14, 10, 20, 14],  # shares the right edge
                [14, 14, 20, 20],  # shares one corner
                [0, 15, 30, 40],   # one unit above: apart
                [10, 0, 14, 10],   # shares the bottom edge
                [15, 15, 20, 20],  # one unit off the corner: apart
            ],
            dtype=np.int64,
        )
        zeros = np.zeros(5, dtype=np.int64)
        _, pair_metal = K.kernel_enclosure_candidates(via, metals, 0, zeros[:1], zeros)
        assert sorted(pair_metal.tolist()) == [0, 1, 3]
        # Inflating the via by one reaches the two that were one unit apart.
        _, pair_metal = K.kernel_enclosure_candidates(via, metals, 1, zeros[:1], zeros)
        assert sorted(pair_metal.tolist()) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("vias,metals", [(0, 5), (5, 0), (0, 0)])
    def test_empty_side(self, vias, metals):
        rng = random.Random(0)
        pair_via, pair_metal = K.kernel_enclosure_candidates(
            random_rect_array(rng, vias, origin=0, extent=50, sizes=[(6, 6)]),
            random_rect_array(rng, metals, origin=0, extent=50, sizes=[(30, 30)]),
            2,
            np.zeros(vias, dtype=np.int64),
            np.zeros(metals, dtype=np.int64),
        )
        assert len(pair_via) == len(pair_metal) == 0
        assert pair_via.dtype == np.int64

    def test_small_blocks_identical(self):
        via_rects, metal_rects, via_segment, metal_segment = self.case(
            "many-segments", 1, 0
        )
        windows = via_rects + np.asarray([-3, -3, 3, 3])

        def enumerated(chunk):
            blocks = list(
                K.enclosure_candidate_blocks(
                    windows, metal_rects, via_segment, metal_segment, chunk
                )
            )
            return [np.concatenate(column).tolist() for column in zip(*blocks)]

        whole = enumerated(1 << 20)
        assert len(whole[0]) > 7
        for chunk in (1, 7, 64):
            assert enumerated(chunk) == whole

    def test_enumerated_candidates_follow_the_design_size(self):
        """Work bound: from jpeg@1 to jpeg@2 the scan visits candidates in
        proportion to the rects it is given — not to their product, which is
        what every-via-against-every-metal costs and which grows ~16x here."""
        from repro.core.parallel import ParallelBackend
        from repro.core.plan import compile_plan
        from repro.core.engine import EngineOptions
        from repro.util.profile import PhaseProfile
        from repro.workloads import asap7, build_design

        rules = [rule for rule in asap7.full_deck() if rule.kind.name == "ENCLOSURE"]
        assert rules

        def measure(scale):
            layout = build_design("jpeg", scale)
            options = EngineOptions(mode="parallel", use_cache=False)
            backend = ParallelBackend(compile_plan(layout, rules, options))
            rects = candidates = 0
            for rule in rules:
                buf, _ = backend._pack_enclosure(rule, PhaseProfile())
                windows = buf.via_rects + np.asarray(
                    [-rule.value, -rule.value, rule.value, rule.value]
                )
                rects += len(buf.via_rects) + len(buf.metal_rects)
                candidates += sum(
                    len(via)
                    for via, _, _ in K.enclosure_candidate_blocks(
                        windows, buf.metal_rects, buf.via_segment, buf.metal_segment
                    )
                )
            return rects, candidates

        rects_1, candidates_1 = measure(1)
        rects_2, candidates_2 = measure(2)
        assert rects_2 > 3 * rects_1
        assert candidates_2 / candidates_1 <= 1.5 * (rects_2 / rects_1)
        # And in absolute terms: a handful of candidates per rect.
        assert candidates_2 <= 8 * rects_2


class TestSegmentedCornerKernel:
    """The x-sorted range scan finds what the all-pairs kernel finds per segment."""

    @staticmethod
    def canonical(hits):
        return sorted(
            zip(
                hits.ax.tolist(), hits.ay.tolist(), hits.bx.tolist(),
                hits.by.tolist(), hits.measured.tolist(),
            )
        )

    @pytest.mark.parametrize("threshold", [1, 6, 15, 400])
    @pytest.mark.parametrize("segments", [1, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_all_pairs_per_segment(self, seed, segments, threshold):
        rng = random.Random(f"corners-{seed}-{segments}")
        polys = random_rects(seed + 20, n=50, extent=200)
        buf = K.pack_corners(polys)
        # A polygon's corners share its segment, as rows hold whole polygons.
        poly_segment = np.asarray(
            [rng.randrange(segments) for _ in polys], dtype=np.int64
        )
        buf.segment = poly_segment[buf.poly]
        want = K.CornerHits.concatenate(
            [
                K.kernel_corner_pairs(
                    buf.take(np.flatnonzero(buf.segment == segment)), threshold
                )
                for segment in range(segments)
            ]
        )
        for chunk in (5, 1 << 20):
            got = K.kernel_corner_pairs_segmented(buf, threshold, chunk)
            assert self.canonical(got) == self.canonical(want)
        if threshold >= 15:
            assert len(want)

    def test_enumerated_pairs_follow_the_threshold(self):
        """One segment, corners spread wide in x: the scan visits the pairs
        within the rule distance in x, not all n(n-1)/2 of them."""
        polys = [
            Polygon.from_rect_coords(40 * k, 7 * (k % 5), 40 * k + 20, 7 * (k % 5) + 20)
            for k in range(200)
        ]
        buf = K.pack_corners(polys)
        buf.segment = np.zeros(len(buf), dtype=np.int64)
        seen = []
        original = K._evaluate_corner_pairs

        def spy(buf_, a, b, limit):
            seen.append(len(a))
            return original(buf_, a, b, limit)

        K._evaluate_corner_pairs = spy
        try:
            hits = K.kernel_corner_pairs_segmented(buf, 25)
        finally:
            K._evaluate_corner_pairs = original
        assert len(hits)
        n = len(buf)
        assert 0 < sum(seen) <= 4 * n < n * (n - 1) // 2


SEGMENTED_CASES = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
#: seed, items, segment ids to draw from (sparse ids included), rule
#: distance, block size
SEGMENTED_SHAPES = (
    st.integers(0, 10 ** 6),
    st.integers(2, 120),
    st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True),
    st.integers(1, 300),
    st.sampled_from([1, 5, 64, 1 << 20]),
)


def random_segmented_edges(seed, n, ids, polygons=None):
    """``n`` random vertical edges over segments drawn from ``ids``; each
    edge its own polygon unless ``polygons`` ids are drawn from."""
    rng = np.random.default_rng(seed)
    return K.EdgeBuffer(
        True,
        rng.integers(-200, 200, n),
        rng.integers(-200, 0, n),
        rng.integers(1, 200, n),
        rng.choice([-1, 1], n),
        np.arange(n) if polygons is None else rng.integers(0, polygons, n),
        rng.choice(ids, n),
    )


class TestEnumeratorsStayInSegment:
    """The pair evaluators no longer mask cross-segment pairs, because no
    enumerator hands them one: over random segmented buffers, every pair
    that reaches an evaluator — and every candidate block of the enclosure
    scan — lies in one segment."""

    @staticmethod
    def spied(patch, name):
        """Replace evaluator ``name`` by one that records the pairs it gets."""
        seen = []
        original = getattr(K, name)

        def spy(buf, a, b, *args, **kwargs):
            seen.append((buf.segment[a], buf.segment[b]))
            return original(buf, a, b, *args, **kwargs)

        patch.setattr(K, name, spy)
        return seen

    @staticmethod
    def assert_in_segment(seen):
        assert seen
        for left, right in seen:
            assert np.array_equal(left, right)

    @SEGMENTED_CASES
    @given(*SEGMENTED_SHAPES)
    def test_edge_pair_kernels(self, seed, n, ids, threshold, chunk):
        buf = random_segmented_edges(seed, n, ids)
        with pytest.MonkeyPatch.context() as patch:
            seen = self.spied(patch, "_evaluate_pairs")
            K.kernel_pairs_bruteforce_segmented(buf, threshold, want_width=False, chunk=chunk)
            if len(ids) < n:  # some segment holds a pair
                self.assert_in_segment(seen)
            seen.clear()
            K.kernel_pairs_sweep_segmented(buf, threshold, want_width=False)
            for left, right in seen:
                assert np.array_equal(left, right)

    @SEGMENTED_CASES
    @given(*SEGMENTED_SHAPES)
    def test_segmented_ranges_and_range_blocks(self, seed, n, ids, threshold, chunk):
        rng = np.random.default_rng(seed)
        coord, segment = rng.integers(-500, 500, n), rng.choice(ids, n)
        order, begin, end = K._segmented_ranges(coord, segment, threshold)
        sorted_segment, sorted_coord = segment[order], coord[order]
        pairs = 0
        for rows, offsets in K._range_blocks((end - begin).clip(min=0), chunk):
            partner = begin[rows] + offsets
            assert np.array_equal(sorted_segment[rows], sorted_segment[partner])
            assert np.all(sorted_coord[partner] - sorted_coord[rows] < threshold)
            pairs += len(rows)
        assert pairs == int((end - begin).clip(min=0).sum())

    @SEGMENTED_CASES
    @given(*SEGMENTED_SHAPES)
    def test_corner_kernel(self, seed, n, ids, threshold, chunk):
        rng = np.random.default_rng(seed)
        buf = K.CornerBuffer(
            rng.integers(-200, 200, n),
            rng.integers(-200, 200, n),
            rng.choice([-1, 1], n),
            rng.choice([-1, 1], n),
            np.arange(n),
            rng.choice(ids, n),
        )
        with pytest.MonkeyPatch.context() as patch:
            seen = self.spied(patch, "_evaluate_corner_pairs")
            K.kernel_corner_pairs_segmented(buf, threshold, chunk)
            for left, right in seen:
                assert np.array_equal(left, right)

    @SEGMENTED_CASES
    @given(*SEGMENTED_SHAPES)
    def test_enclosure_candidate_blocks(self, seed, n, ids, threshold, chunk):
        rng = np.random.default_rng(seed)
        metals = n // 2 + 1

        def rects(count, size):
            low = rng.integers(-300, 300, (count, 2))
            return np.concatenate([low, low + rng.integers(1, size, (count, 2))], axis=1)

        windows, metal_rects = rects(n, 40), rects(metals, 200)
        window_segment, metal_segment = rng.choice(ids, n), rng.choice(ids, metals)
        for window, metal, _ in K.enclosure_candidate_blocks(
            windows, metal_rects, window_segment, metal_segment, chunk
        ):
            assert np.array_equal(window_segment[window], metal_segment[metal])


class TestPairBlocks:
    """``_range_blocks`` tiles a launch's candidate pairs into blocks of at
    most ``chunk`` pairs (``PAIR_BLOCK`` by default), each pair once and in
    row order, so the hits do not depend on the block size."""

    COUNTS = st.lists(st.integers(0, 40), max_size=60)
    CHUNKS = st.sampled_from([1, 5, 64, K.PAIR_BLOCK])

    @staticmethod
    def blocks(counts, chunk):
        return list(K._range_blocks(np.asarray(counts, dtype=np.int64), chunk))

    @SEGMENTED_CASES
    @given(COUNTS, CHUNKS)
    def test_every_row_offset_exactly_once(self, counts, chunk):
        got = [
            pair
            for rows, offsets in self.blocks(counts, chunk)
            for pair in zip(rows.tolist(), offsets.tolist())
        ]
        want = [(row, offset) for row, count in enumerate(counts) for offset in range(count)]
        assert got == want

    @SEGMENTED_CASES
    @given(COUNTS, CHUNKS)
    def test_no_block_exceeds_the_chunk_but_a_lone_long_row(self, counts, chunk):
        for rows, _ in self.blocks(counts, chunk):
            assert len(rows) <= chunk or (
                rows[0] == rows[-1] and counts[rows[0]] > chunk
            )

    @SEGMENTED_CASES
    @given(*SEGMENTED_SHAPES[:4], st.booleans())
    def test_sweep_check_hits_do_not_depend_on_the_block(
        self, seed, n, ids, threshold, want_width
    ):
        buf = random_segmented_edges(seed, n, ids, polygons=4)
        order, begin, end = K._segmented_ranges(buf.fixed, buf.segment, threshold)
        sorted_buf = buf.take(order)
        want = K.kernel_sweep_check(
            sorted_buf, begin, end, threshold, want_width=want_width, chunk=1 << 20
        )
        for chunk in (1, 7, K.PAIR_BLOCK):
            got = K.kernel_sweep_check(
                sorted_buf, begin, end, threshold, want_width=want_width, chunk=chunk
            )
            for field in dataclasses.fields(K.PairHits):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))


def comb(teeth):
    """One segment of ``teeth`` vertical bars, 10 wide at pitch 20: two
    edges per tooth, each with six edges within a 62 rule distance — the
    shape of M1.S.1 on the ledger design (22 544 edges, 111 754 candidate
    pairs in one segment). Teeth sit in seven y-bands, so a tooth faces a
    neighbour only where every hundredth one runs full height."""
    index = np.arange(teeth, dtype=np.int64)
    lo = 3000 * (index % 7)
    hi = lo + 1000
    lo[::100], hi[::100] = 0, 21000
    x = 20 * index
    return K.EdgeBuffer(
        True,
        np.concatenate([x, x + 10]),
        np.concatenate([lo, lo]),
        np.concatenate([hi, hi]),
        np.repeat(np.asarray([1, -1], dtype=np.int64), teeth),
        np.concatenate([index, index]),
        np.zeros(2 * teeth, dtype=np.int64),
    )


class TestPairBlockBudget:
    """A fused launch's working set follows ``PAIR_BLOCK``, not its
    candidate count."""

    def test_sweep_peak_stays_under_a_fixed_bound(self):
        import tracemalloc

        buf = comb(10_000)
        _, begin, end = K._segmented_ranges(buf.fixed, buf.segment, 62)
        assert len(buf) == 20_000 and int((end - begin).clip(min=0).sum()) > 100_000
        tracemalloc.start()
        try:
            hits = K.kernel_pairs_sweep_segmented(buf, 62, want_width=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(hits)
        # All 120 k pairs in one block peak near 12 MB; 16 k-pair blocks
        # plus the sorted copy of the buffer stay near 3 MB.
        assert peak < 6_000_000

    def test_one_lane_launch_gathers_only_for_the_sort(self, monkeypatch):
        from repro.core.parallel import BRUTE_FORCE_THRESHOLD, launch_pair_rows
        from repro.gpu import Device
        from repro.hierarchy.edgepack import EdgeBufferPair
        from repro.util.profile import PhaseProfile

        buf = comb(1_000)
        z = np.zeros(0, dtype=np.int64)
        pair = EdgeBufferPair(buf, K.EdgeBuffer(False, z, z, z, z, z, z), 1_000)
        want = K.kernel_pairs_sweep_segmented(buf, 62, want_width=False)
        taken = []
        original = K.EdgeBuffer.take

        def take(self, order):
            taken.append(len(order))
            return original(self, order)

        monkeypatch.setattr(K.EdgeBuffer, "take", take)
        device = Device()
        streams = [device.create_stream() for _ in range(2)]
        hits, counters = launch_pair_rows(
            pair, 62, BRUTE_FORCE_THRESHOLD, streams, PhaseProfile()
        )
        assert counters["fused_launches"] == counters["kernels_sweepline"] == 1
        assert taken == [len(buf)]  # the sweep kernel's sort, nothing else
        (got,) = hits
        for field in dataclasses.fields(K.PairHits):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))

import random
from array import array
from itertools import accumulate

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.geometry import EMPTY_RECT, Rect
from repro.partition import (
    margin_for_rule,
    mbr_table,
    partition_rects,
    partition_sorted_baseline,
)

from . import reference_partition


class TestMargin:
    def test_values(self):
        assert margin_for_rule(0) == 0
        assert margin_for_rule(1) == 1
        assert margin_for_rule(4) == 2
        assert margin_for_rule(5) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            margin_for_rule(-1)

    @pytest.mark.parametrize("rule", [1, 2, 5, 18, 24])
    def test_margin_guarantee(self, rule):
        # Items in different rows must be > rule-1 apart: 2m+1 > rule-1.
        m = margin_for_rule(rule)
        assert 2 * m + 1 >= rule


class TestPartition:
    def test_separated_bands(self):
        rects = [Rect(0, 0, 100, 10), Rect(0, 50, 100, 60), Rect(0, 100, 100, 110)]
        part = partition_rects(mbr_table(rects), 5)
        assert part.num_rows == 3
        assert [row.members for row in part.rows] == [[0], [1], [2]]

    def test_close_bands_merge(self):
        rects = [Rect(0, 0, 100, 10), Rect(0, 12, 100, 20)]
        part = partition_rects(mbr_table(rects), 5)  # gap 2 < 5: cannot be independent
        assert part.num_rows == 1
        assert part.rows[0].members == [0, 1]

    def test_abutting_always_merge(self):
        rects = [Rect(0, 0, 10, 10), Rect(0, 10, 10, 20)]
        assert partition_rects(mbr_table(rects), 1).num_rows == 1

    def test_empty_rects_unassigned(self):
        rects = [Rect(0, 0, 10, 10), EMPTY_RECT]
        part = partition_rects(mbr_table(rects), 3)
        assert part.row_of() == {0: 0}

    def test_no_rects(self):
        assert partition_rects(mbr_table([]), 5).num_rows == 0

    def test_row_spans_sorted(self):
        rects = [Rect(0, 100, 10, 110), Rect(0, 0, 10, 10)]
        part = partition_rects(mbr_table(rects), 3)
        spans = [row.span for row in part.rows]
        assert spans == sorted(spans)

    def test_largest_row(self):
        rects = [Rect(0, 0, 10, 10), Rect(0, 5, 10, 15), Rect(0, 500, 10, 510)]
        assert partition_rects(mbr_table(rects), 2).largest_row == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_independence_guarantee(self, seed):
        """Cross-row items are always farther apart than the rule distance."""
        rng = random.Random(seed)
        rule = rng.randint(1, 30)
        rects = []
        for _ in range(120):
            x, y = rng.randint(0, 500), rng.randint(0, 500)
            rects.append(Rect(x, y, x + rng.randint(1, 50), y + rng.randint(1, 50)))
        part = partition_rects(mbr_table(rects), rule)
        owner = part.row_of()
        for i, a in enumerate(rects):
            for j in range(i + 1, len(rects)):
                if owner[i] != owner[j]:
                    y_gap = max(rects[j].ylo - a.yhi, a.ylo - rects[j].yhi)
                    assert y_gap >= rule, (rule, a, rects[j])

    @pytest.mark.parametrize("seed", range(4))
    def test_backends_agree(self, seed):
        rng = random.Random(50 + seed)
        rects = []
        for _ in range(200):
            x, y = rng.randint(0, 800), rng.randint(0, 800)
            rects.append(Rect(x, y, x + rng.randint(1, 30), y + rng.randint(1, 30)))
        a = partition_rects(mbr_table(rects), 7)
        b = partition_sorted_baseline(mbr_table(rects), 7)
        assert [r.members for r in a.rows] == [r.members for r in b.rows]
        assert [r.span for r in a.rows] == [r.span for r in b.rows]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-60, 60), st.integers(-60, 60), st.integers(-5, 40), st.integers(-5, 40)
            ).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3])),
            max_size=40,
        ),
        st.sampled_from([0, 1, 2, 7, 10_000]),
    )
    def test_pairs_match_the_object_procedure(self, rects, rule):
        """Empty (negative-extent) and degenerate (zero-extent) rects
        included; margins 0, 1 and big."""
        margin, rows = reference_partition.partition_rects(rects, rule)
        part = partition_rects(mbr_table(rects), rule)
        assert part.margin == margin
        assert part.members == [members for _, members in rows]
        assert [row.span for row in part.rows] == [span for span, _ in rows]
        # The signature is the margin and the bytes of the two flat tables.
        order = array("q", [m for _, members in rows for m in members])
        ends = array("q", accumulate(len(members) for _, members in rows))
        assert part.signature() == (margin, (order.tobytes(), ends.tobytes()))
        as_lists = partition_rects(mbr_table(list(r) for r in rects), rule)
        assert as_lists.signature() == part.signature()
        baseline = partition_sorted_baseline(mbr_table(rects), rule)
        assert baseline.signature() == part.signature()

    def test_members_partition_everything(self):
        rng = random.Random(9)
        rects = [
            Rect(x, y, x + 10, y + 10)
            for x, y in [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(80)]
        ]
        part = partition_rects(mbr_table(rects), 4)
        members = sorted(m for row in part.rows for m in row.members)
        assert members == list(range(len(rects)))

"""Ablation: sweepline + interval tree vs STR R-tree for candidate pairs.

The paper chooses a sweepline with an interval-tree status for the
sequential MBR overlap search (§IV-D) over the R-tree family it cites in
§I. This ablation measures both on the benchmark designs' flat MBR
populations — the sweepline wins on full pair enumeration (its native
operation), while the R-tree's strength is repeated windowed queries.
"""

import pytest

from repro.layout.flatten import flatten_layer
from repro.spatial import iter_overlapping_pairs
from repro.workloads import asap7

from .common import design
from .rtree import RTree


def m1_mbrs(design_name):
    return [p.mbr for p in flatten_layer(design(design_name), asap7.M1)]


@pytest.mark.parametrize("design_name", ["ibex", "aes"])
def test_sweepline_pairs(benchmark, design_name):
    rects = m1_mbrs(design_name)
    pairs = benchmark(lambda: list(iter_overlapping_pairs(rects)))
    benchmark.extra_info["pairs"] = len(pairs)


@pytest.mark.parametrize("design_name", ["ibex", "aes"])
def test_rtree_pairs(benchmark, design_name):
    rects = m1_mbrs(design_name)
    entries = [(rect, i) for i, rect in enumerate(rects)]

    def run():
        return RTree(entries).overlapping_pairs()

    pairs = benchmark(run)
    benchmark.extra_info["pairs"] = len(pairs)


@pytest.mark.parametrize("design_name", ["ibex", "aes"])
def test_rtree_windowed_queries(benchmark, design_name):
    rects = m1_mbrs(design_name)
    tree = RTree([(rect, i) for i, rect in enumerate(rects)])
    windows = [rect.inflated(18) for rect in rects[:500]]

    def run():
        return sum(len(tree.query(w)) for w in windows)

    hits = benchmark(run)
    benchmark.extra_info["hits"] = hits


def test_index_equivalence():
    rects = m1_mbrs("uart")
    entries = [(rect, i) for i, rect in enumerate(rects)]
    assert sorted(RTree(entries).overlapping_pairs()) == sorted(
        iter_overlapping_pairs(rects)
    )

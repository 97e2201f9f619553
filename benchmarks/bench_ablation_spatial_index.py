"""Ablation: interval-tree sweep vs sort-and-scan vs STR R-tree for candidate pairs.

The paper pairs MBRs with a sweepline whose status is an interval tree
(§IV-D), chosen over the R-tree family it cites in §I. The engine now runs
the sweep as one sort-and-scan with a per-call axis choice
(``repro.spatial.sweepline``, docs/algorithms.md §3); the tree sweep it
replaced lives on in ``interval_tree.py``. This ablation measures all three
on the benchmark designs' flat M1 MBRs, and on the adversarial population
the axis choice exists for: full-width horizontal tracks plus small vias,
and its transpose. The R-tree's strength is repeated windowed queries,
measured on their own.

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_spatial_index.py -q
"""

import random

import pytest

from repro.geometry import Rect
from repro.layout.flatten import flatten_layer
from repro.spatial import iter_overlapping_pairs
from repro.workloads import asap7

from .common import design
from .interval_tree import tree_sweep_pairs
from .rtree import RTree

ARMS = {
    "interval-tree": lambda rects: list(tree_sweep_pairs(rects)),
    "sort-and-scan": lambda rects: list(iter_overlapping_pairs(rects)),
    "str-rtree": lambda rects: RTree([(rect, i) for i, rect in enumerate(rects)]).overlapping_pairs(),
}


def m1_mbrs(design_name):
    return [p.mbr for p in flatten_layer(design(design_name), asap7.M1)]


def tracks_and_vias(tracks=2000, vias=5000, seed=0, transpose=False):
    """Full-width horizontal tracks 10 apart plus small vias scattered over
    them: the population on which an x-only scan goes quadratic."""
    rng = random.Random(seed)
    width = 10 * tracks
    boxes = [(0, 10 * k, width, 10 * k + 4) for k in range(tracks)]
    for _ in range(vias):
        x, y = rng.randrange(width), rng.randrange(width)
        boxes.append((x, y, x + 3, y + 3))
    if transpose:
        boxes = [(ylo, xlo, yhi, xhi) for xlo, ylo, xhi, yhi in boxes]
    return [Rect(*box) for box in boxes]


@pytest.mark.parametrize("arm", sorted(ARMS))
@pytest.mark.parametrize("design_name", ["ibex", "aes"])
def test_design_pairs(benchmark, design_name, arm):
    rects = m1_mbrs(design_name)
    pairs = benchmark(ARMS[arm], rects)
    benchmark.extra_info["pairs"] = len(pairs)


@pytest.mark.parametrize("arm", sorted(ARMS))
@pytest.mark.parametrize("transpose", [False, True], ids=["horizontal", "vertical"])
def test_tracks_and_vias(benchmark, transpose, arm):
    rects = tracks_and_vias(transpose=transpose)
    pairs = benchmark(ARMS[arm], rects)
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
    for rects in (m1_mbrs("uart"), tracks_and_vias(200, 500), tracks_and_vias(200, 500, transpose=True)):
        found = {arm: sorted(run(rects)) for arm, run in ARMS.items()}
        assert found["interval-tree"] == found["sort-and-scan"] == found["str-rtree"]
        assert found["sort-and-scan"]

"""Spatial index structures (infrastructure layer).

The interval tree and sweepline implement the paper's sequential candidate
search (§IV-D, Fig. 3); interval merging implements Algorithm 1 behind the
adaptive row partition (§IV-B). :class:`~repro.spatial.rtree.RTree` is
imported from its module.
"""

from .interval_merge import (
    coalesce_rects,
    merge_intervals_pigeonhole,
    merge_intervals_sorted,
)
from .interval_tree import IntervalTree
from .regions import RegionSet
from .sweepline import (
    brute_force_pairs,
    iter_bipartite_overlaps,
    iter_overlapping_pairs,
    report_overlapping_pairs,
    sweep,
)

__all__ = [
    "IntervalTree",
    "RegionSet",
    "brute_force_pairs",
    "coalesce_rects",
    "iter_bipartite_overlaps",
    "iter_overlapping_pairs",
    "merge_intervals_pigeonhole",
    "merge_intervals_sorted",
    "report_overlapping_pairs",
    "sweep",
]

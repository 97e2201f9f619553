"""Spatial index structures (infrastructure layer).

The sweepline implements the paper's sequential candidate search (§IV-D,
Fig. 3) as one sort-and-scan over the MBRs, with the sorted run standing in
for the paper's interval-tree status; interval merging implements Algorithm 1
behind the adaptive row partition (§IV-B).
"""

from .interval_merge import (
    coalesce_rects,
    merge_intervals_pigeonhole,
    merge_intervals_sorted,
)
from .regions import RegionSet
from .sweepline import (
    iter_bipartite_overlaps,
    iter_overlapping_pairs,
    report_overlapping_pairs,
)

__all__ = [
    "RegionSet",
    "coalesce_rects",
    "iter_bipartite_overlaps",
    "iter_overlapping_pairs",
    "merge_intervals_pigeonhole",
    "merge_intervals_sorted",
    "report_overlapping_pairs",
]

"""Hierarchy tree, range queries, and task pruning (paper §IV-A/§IV-C)."""

from .pruning import (
    IntraCheckScheduler,
    LevelItem,
    PruningStats,
    SubtreeWindow,
    always_invariant,
    area_invariant,
    distance_invariant,
    gather_pair_polygons,
    gather_pair_rings,
    level_items,
)
from .query import QueryStats, count_layer_range, invert, iter_layer_range, layer_range_query
from .tree import HierarchyTree, reference_mbr

__all__ = [
    "HierarchyTree",
    "IntraCheckScheduler",
    "LevelItem",
    "PruningStats",
    "QueryStats",
    "SubtreeWindow",
    "always_invariant",
    "area_invariant",
    "count_layer_range",
    "distance_invariant",
    "gather_pair_polygons",
    "gather_pair_rings",
    "invert",
    "iter_layer_range",
    "layer_range_query",
    "level_items",
    "reference_mbr",
]

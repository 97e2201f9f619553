"""Hierarchy tree, range queries, and task pruning (paper §IV-A/§IV-C)."""

from .pruning import (
    IntraCheckScheduler,
    LevelItem,
    PruningStats,
    SubtreeWindow,
    always_invariant,
    area_invariant,
    distance_invariant,
    gather_pair_rings,
    level_items,
)
from .query import invert
from .tree import HierarchyTree, reference_mbr

__all__ = [
    "HierarchyTree",
    "IntraCheckScheduler",
    "LevelItem",
    "PruningStats",
    "SubtreeWindow",
    "always_invariant",
    "area_invariant",
    "distance_invariant",
    "gather_pair_rings",
    "invert",
    "level_items",
    "reference_mbr",
]

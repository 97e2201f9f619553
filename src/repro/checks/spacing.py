"""Minimum spacing check (inter-polygon, intra-layer distance rule).

Candidate pairs come from the MBR machinery (sweepline in the sequential
engine, row buffers in the parallel engine); this module holds the shared
edge-level decision so every checker flags exactly the same regions.
Notches (a polygon too close to itself across an exterior gap) are included,
matching common space-rule semantics.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..geometry import Polygon
from ..geometry.polygon import EdgeRows, edge_rows_of
from ..spatial.sweepline import iter_overlapping_pairs
from .base import Violation, ViolationKind
from .edges import (
    notch_regions,
    polygon_notch_violations,
    polygon_spacing_violations,
    spacing_regions,
)


def spacing_pair_violations(
    p: Polygon, q: Polygon, layer: int, min_space: int
) -> List[Violation]:
    """Spacing violations between two distinct polygons."""
    return [
        _make(layer, region, distance, min_space)
        for region, distance in polygon_spacing_violations(p, q, min_space)
    ]


def spacing_notch_violations(polygon: Polygon, layer: int, min_space: int) -> List[Violation]:
    """Spacing violations of a polygon against itself."""
    return [
        _make(layer, region, distance, min_space)
        for region, distance in polygon_notch_violations(polygon, min_space)
    ]


def check_spacing(
    polygons: Sequence[Polygon], layer: int, min_space: int
) -> List[Violation]:
    """Spacing check over a flat polygon collection.

    Uses the MBR sweepline (inflated by the rule margin) to restrict the
    quadratic edge work to nearby pairs; this is the reference semantics the
    hierarchical and GPU paths must reproduce.
    """
    violations: List[Violation] = []
    for polygon in polygons:
        violations.extend(spacing_notch_violations(polygon, layer, min_space))
    inflated = [p.mbr.inflated(_candidate_margin(min_space)) for p in polygons]
    for i, j in iter_overlapping_pairs(inflated):
        violations.extend(spacing_pair_violations(polygons[i], polygons[j], layer, min_space))
    return violations


def check_spacing_pairs(
    pairs: Iterable[Tuple[Polygon, Polygon]], layer: int, min_space: int
) -> List[Violation]:
    """Spacing check over explicit candidate pairs (hierarchical engine path)."""
    violations: List[Violation] = []
    for p, q in pairs:
        violations.extend(spacing_pair_violations(p, q, layer, min_space))
    return violations


def _candidate_margin(min_space: int) -> int:
    """Per-MBR inflation making closed MBR overlap a complete candidate filter."""
    return (min_space + 1) // 2


def _make(layer: int, region, distance: int, min_space: int) -> Violation:
    return Violation(
        kind=ViolationKind.SPACING,
        layer=layer,
        region=region,
        measured=distance,
        required=min_space,
    )


class SpacingProcedures:
    """Edge-based exterior spacing (paper §IV-D check procedures).

    The pairwise-procedure objects the hierarchical sweeps call; registered
    per rule kind in :mod:`repro.core.plan`. ``prepare`` turns a clockwise
    ring of ``(x, y)`` pairs into what the other two take: here its edge-row
    table.
    """

    prepare = staticmethod(edge_rows_of)

    def self_violations(self, rows: EdgeRows, layer: int, value: int):
        return [_make(layer, region, d, value) for region, d in notch_regions(rows, value)]

    def cross_violations(self, rows_a: EdgeRows, rows_b: EdgeRows, layer: int, value: int):
        return [
            _make(layer, region, d, value)
            for region, d in spacing_regions(rows_a, rows_b, value)
        ]

    def flat_check(self, polygons, layer: int, value: int):
        return check_spacing(polygons, layer, value)

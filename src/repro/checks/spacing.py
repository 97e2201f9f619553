"""Minimum spacing check (inter-polygon, intra-layer distance rule).

Candidate pairs come from the MBR machinery (sweepline in the sequential
engine, row buffers in the parallel engine); this module holds the shared
edge-level decision so every checker flags exactly the same regions.
Notches (a polygon too close to itself across an exterior gap) are included,
matching common space-rule semantics.
"""

from __future__ import annotations

from typing import List, Sequence

from ..geometry.polygon import EdgeRows, edge_rows_of
from .base import PlacedRing, Violation, ViolationKind, check_pairs
from .edges import notch_regions, spacing_regions


def check_spacing(rings: Sequence[PlacedRing], layer: int, min_space: int) -> List[Violation]:
    """Spacing check over a flat collection of placed rings
    (:func:`~repro.checks.base.check_pairs`): notches, then the pairs the
    rule-inflated MBR sweep finds."""
    return check_pairs(SpacingProcedures(), rings, layer, min_space)


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

"""Corner-to-corner (Euclidean) spacing — roadmap extension.

The reproduced rule set measures parallel edges with overlapping
projections, which is what the paper's benchmarks cover; the paper defers
"supports for general geometric shapes" to its roadmap. This module takes
the first step: diagonal corner-to-corner spacing, the classic rule that
edge-projection checks cannot see (two rectangles offset diagonally can
pass edge spacing while their corners nearly touch).

A *convex* corner of a clockwise rectilinear polygon is a vertex whose two
edges turn right; its **exterior quadrant** is the diagonal direction
pointing away from both edges' interiors. Two corners violate when each
lies inside the other's exterior quadrant strictly diagonally (both axis
offsets nonzero — axis-aligned proximity belongs to the edge-based spacing
rule) and their Euclidean distance is below the rule value. Distances stay
exact: the comparison is on squared integers, and the reported measurement
is the floor of the true distance.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence, Tuple

from ..violation_table import KIND_CODES, Row
from .base import PlacedRing, check_pairs

CORNER = KIND_CODES["corner"]


@dataclasses.dataclass(frozen=True)
class Corner:
    """One convex corner: position plus exterior-quadrant signs (+/-1)."""

    x: int
    y: int
    qx: int
    qy: int


def ring_corners(vertices: Sequence[Tuple[int, int]]) -> List[Corner]:
    """All convex corners of a clockwise rectilinear ring, given as ``(x, y)``
    pairs, with their exterior quadrants."""
    corners: List[Corner] = []
    n = len(vertices)
    for i in range(n):
        px, py = vertices[(i - 1) % n]
        cx, cy = vertices[i]
        nx, ny = vertices[(i + 1) % n]
        d1 = (cx - px, cy - py)
        d2 = (nx - cx, ny - cy)
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        # Clockwise orientation: a right turn (convex corner) has cross < 0.
        if cross >= 0:
            continue
        # Interior normals of the incident edges; exterior quadrant is the
        # opposite of their (axis-aligned, orthogonal) sum.
        n1 = (d1[1], -d1[0])
        n2 = (d2[1], -d2[0])
        ex = -_sign(n1[0] + n2[0])
        ey = -_sign(n1[1] + n2[1])
        corners.append(Corner(cx, cy, ex, ey))
    return corners


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def corner_pair_violations(
    corners_a: Sequence[Corner],
    corners_b: Sequence[Corner],
    layer: int,
    min_space: int,
) -> List[Row]:
    """Diagonal corner violation rows between two corner sets, each marked
    by the box its two corners span."""
    limit = min_space * min_space
    out: List[Row] = []
    for ca in corners_a:
        for cb in corners_b:
            dx = cb.x - ca.x
            dy = cb.y - ca.y
            if dx == 0 or dy == 0:
                continue  # axis-aligned: the edge-based spacing rule's job
            if dx * dx + dy * dy >= limit:
                continue
            # Each corner must open toward the other.
            if _sign(dx) != ca.qx or _sign(dy) != ca.qy:
                continue
            if _sign(-dx) != cb.qx or _sign(-dy) != cb.qy:
                continue
            out.append(
                (
                    layer, CORNER,
                    min(ca.x, cb.x), min(ca.y, cb.y), max(ca.x, cb.x), max(ca.y, cb.y),
                    -1, math.isqrt(dx * dx + dy * dy), min_space,
                )
            )
    return out


def check_corner_spacing(
    rings: Sequence[PlacedRing], layer: int, min_space: int
) -> List[Row]:
    """Flat corner-spacing violation rows over placed rings
    (:func:`~repro.checks.base.check_pairs`): candidates come from the same
    rule-inflated MBR sweep the edge spacing check uses, and same-ring
    corner pairs (concave shapes folding back on themselves) are included."""
    return check_pairs(CornerProcedures(), rings, layer, min_space)


class CornerProcedures:
    """Diagonal corner-to-corner spacing (roadmap extension).

    The pairwise-procedure object the hierarchical sweeps call; registered
    per rule kind in :mod:`repro.core.plan`. ``prepare`` turns a clockwise
    ring of ``(x, y)`` pairs into its convex corners, which the other two take.
    """

    prepare = staticmethod(ring_corners)

    def self_violations(self, corners: Sequence[Corner], layer: int, value: int):
        return corner_pair_violations(corners, corners, layer, value)

    def cross_violations(
        self, corners_a: Sequence[Corner], corners_b: Sequence[Corner], layer: int, value: int
    ):
        return corner_pair_violations(corners_a, corners_b, layer, value)

"""Minimum enclosure check (inter-layer distance rule).

``enclosure(via_layer, metal_layer, value)`` requires every polygon on the
via layer to lie inside some single polygon of the metal layer with at least
``value`` of margin on every side (layer misalignment protection, paper §II).

Margins are computed edge-wise: for each via edge, the nearest parallel
metal edge on the via's outward side with a positive common projection bounds
the margin in that direction. This is exact for the rectangle vias and
rectilinear landing shapes fabricated layouts (and our workloads) use.

A via contained by *no* candidate metal polygon is flagged with measured
margin equal to the best (possibly negative-clamped-to-zero) achievable one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..spatial.sweepline import Box, iter_bipartite_overlaps
from .base import (
    PlacedRing,
    Shape,
    Violation,
    ViolationKind,
    as_polygon,
    is_box,
    ring_shape,
    shape_mbr,
)


def enclosure_margin(via: Shape, metal: Shape) -> Optional[int]:
    """Smallest per-side margin of ``via`` inside ``metal``.

    Returns ``None`` when ``metal`` does not enclose ``via`` at all (some
    via edge finds no outward metal boundary, or the via pokes out). Either
    side may be a ``Rect`` standing for a rectangle (see :data:`Shape`).
    """
    inner, outer = shape_mbr(via), shape_mbr(metal)
    if not outer.contains_rect(inner):
        return None
    if is_box(via) and is_box(metal):
        # Two boxes, one inside the other: each via side faces exactly the
        # metal side of the same name.
        return min(
            inner.xlo - outer.xlo, inner.ylo - outer.ylo,
            outer.xhi - inner.xhi, outer.yhi - inner.yhi,
        )
    via, metal = as_polygon(via), as_polygon(metal)
    worst: Optional[int] = None
    for via_rows, metal_rows in zip(via.edge_rows(), metal.edge_rows()):
        for fixed, lo, hi, sign in via_rows:
            best: Optional[int] = None
            for metal_fixed, metal_lo, metal_hi, _ in metal_rows:
                if min(hi, metal_hi) <= max(lo, metal_lo):
                    continue
                # Outward of a via edge is against its interior sign.
                signed = (fixed - metal_fixed) * sign
                if signed < 0:
                    continue  # metal edge on the inward side
                if best is None or signed < best:
                    best = signed
            if best is None:
                return None  # no metal boundary outward of this via edge
            if worst is None or best < worst:
                worst = best
    # Sanity: all via corners must actually be inside the metal polygon —
    # edge margins alone cannot see a notch carved between two metal edges.
    for vertex in via.vertices:
        if not metal.contains_point(vertex):
            return None
    return worst


def enclosure_pair_violations(
    via: Shape,
    metals: Sequence[Shape],
    via_layer: int,
    metal_layer: int,
    min_enclosure: int,
) -> List[Violation]:
    """Violations of one via against its candidate metal polygons.

    The via passes if *any* candidate encloses it with margin >=
    ``min_enclosure``; otherwise the best achieved margin is reported.
    """
    best = -1
    for metal in metals:
        margin = enclosure_margin(via, metal)
        if margin is None:
            continue
        if margin >= min_enclosure:
            return []
        best = max(best, margin)
    return [
        Violation(
            kind=ViolationKind.ENCLOSURE,
            layer=via_layer,
            other_layer=metal_layer,
            region=shape_mbr(via).inflated(min_enclosure),
            measured=max(best, 0),
            required=min_enclosure,
        )
    ]


def check_enclosure(
    vias: Sequence[PlacedRing],
    metals: Sequence[PlacedRing],
    via_layer: int,
    metal_layer: int,
    min_enclosure: int,
) -> List[Violation]:
    """Enclosure check over flat via/metal collections of placed rings, each
    judged as its :func:`~repro.checks.base.ring_shape`.

    Candidates are paired with one bipartite MBR sweep: a metal polygon can
    only satisfy a via if its MBR contains the via's MBR inflated by the
    rule value, so sweeping via-MBRs (inflated) against metal-MBRs finds
    every possible satisfier.
    """
    candidates: List[List[Shape]] = [[] for _ in vias]
    metal_shapes: Dict[int, Shape] = {}
    via_rects = [mbr.inflated(min_enclosure) for _, mbr in vias]
    for i, j in iter_bipartite_overlaps(via_rects, [mbr for _, mbr in metals]):
        metal = metal_shapes.get(j)
        if metal is None:
            metal = metal_shapes[j] = ring_shape(*metals[j])
        candidates[i].append(metal)

    violations: List[Violation] = []
    for via, cands in zip(vias, candidates):
        violations.extend(
            enclosure_pair_violations(
                ring_shape(*via), cands, via_layer, metal_layer, min_enclosure
            )
        )
    return violations


class EnclosureProcedures:
    """Via-in-metal enclosure (paper Table II right half).

    The cross-layer procedure object the hierarchical pending-object
    resolution calls; registered per rule kind in :mod:`repro.core.plan`.
    """

    @staticmethod
    def box_satisfied(window: Box, metal: Box) -> bool:
        """Whether the rectangular ``metal`` alone encloses the rectangular via
        whose MBR grown by the rule value on every side is ``window`` (both
        ``(xlo, ylo, xhi, yhi)``): four comparisons, the metal covers the window.

        For two boxes this is ``enclosure_margin(via, metal) >= value``: the
        margin is the least of the four side gaps once the metal contains the
        via, each gap is at least ``value`` exactly when that side of the
        metal reaches the window's, and a positive ``value`` makes covering
        the window imply containing the via. :meth:`satisfied` holds when any
        one metal passes, so a box pair this decides need not join the
        candidates passed to it.
        """
        return (
            metal[0] <= window[0]
            and metal[1] <= window[1]
            and metal[2] >= window[2]
            and metal[3] >= window[3]
        )

    def satisfied(self, via: Shape, metals: Sequence[Shape], value: int) -> bool:
        for metal in metals:
            margin = enclosure_margin(via, metal)
            if margin is not None and margin >= value:
                return True
        return False

    def violations(self, via, metals, via_layer, metal_layer, value):
        return enclosure_pair_violations(via, metals, via_layer, metal_layer, value)


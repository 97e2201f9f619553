"""Violation model shared by every checker in the repository.

Every check procedure reports its findings as violation rows, the 9-tuples
of :data:`repro.violation_table.Row`, and all five checkers (OpenDRC
sequential/parallel, the KLayout-like baselines, and the X-Check
reimplementation) tabulate them as :class:`~repro.violation_table.ViolationTable`
results, so results are directly set-comparable — the cross-validation tests
rely on exact equality of violation sets. :class:`Violation` is the object
view of one row, built only when a table is read as objects.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from ..geometry import Point, Polygon, Rect
from ..geometry.polygon import is_rectangle_ring
from ..spatial.sweepline import iter_overlapping_pairs
from ..violation_table import Row

#: A ring placed in some frame: its vertices as ``(x, y)`` pairs, clockwise,
#: and its MBR there — the geometry every check procedure takes (a gather
#: asked for names appends the ring's object name).
PlacedRing = Tuple[Sequence[Tuple[int, int]], Rect]

#: What the cross-layer procedures judge: a ``Polygon``, or a ``Rect`` standing
#: for the rectangle polygon it bounds (the sequential engine reads
#: rectangles off the ring tables and builds no polygon for them).
Shape = Union[Polygon, Rect]


def shape_mbr(shape: Shape) -> Rect:
    return shape if isinstance(shape, Rect) else shape.mbr


def as_polygon(shape: Shape) -> Polygon:
    return Polygon.from_rect(shape) if isinstance(shape, Rect) else shape


def ring_shape(ring: Sequence[Tuple[int, int]], mbr: Rect) -> Shape:
    """A clockwise ring with its MBR as a shape: the MBR when it is a
    rectangle, a polygon otherwise."""
    if is_rectangle_ring(ring):
        return mbr
    return Polygon._normalised(tuple(map(Point._make, ring)), "", mbr)


def is_box(shape: Shape) -> bool:
    return isinstance(shape, Rect) or shape.is_rectangle


def check_pairs(
    procedures, rings: Sequence[PlacedRing], layer: int, value: int
) -> List[Row]:
    """The violation rows of an intra-layer pairwise rule over a flat
    collection of placed rings ``(vertices, mbr)``: every ring against
    itself, then every pair whose MBRs, each grown by half the rule value
    (rounded up), meet — a complete candidate filter, and the reference
    semantics the hierarchical and GPU paths reproduce. ``procedures`` is
    the kind's pairwise-procedure object
    (:class:`~repro.checks.spacing.SpacingProcedures`,
    :class:`~repro.checks.corner.CornerProcedures`); each ring is prepared
    once."""
    prepared = [procedures.prepare(ring) for ring, _ in rings]
    found: List[Row] = []
    for one in prepared:
        found += procedures.self_violations(one, layer, value)
    margin = (value + 1) // 2
    inflated = [mbr.inflated(margin) for _, mbr in rings]
    for i, j in iter_overlapping_pairs(inflated):
        found += procedures.cross_violations(prepared[i], prepared[j], layer, value)
    return found


class ViolationKind(enum.Enum):
    """What a violation is an instance of."""

    WIDTH = "width"
    SPACING = "spacing"
    ENCLOSURE = "enclosure"
    AREA = "area"
    SHAPE = "shape"
    PREDICATE = "predicate"
    CORNER = "corner"
    OVERLAP = "overlap"
    COLOR = "color"


@dataclasses.dataclass(frozen=True)
class Violation:
    """One design-rule violation.

    ``region`` is the canonical marker geometry: the strip between the two
    offending edges for distance rules, the polygon MBR for area/shape/
    predicate rules. ``measured``/``required`` carry the failing quantity
    (distance in dbu, or area in dbu^2).
    """

    kind: ViolationKind
    layer: int
    region: Rect
    measured: int
    required: int
    other_layer: Optional[int] = None
    #: Set by waiver application (:func:`repro.core.markers.apply_waivers`).
    #: Excluded from equality/hash/ordering so a waived violation is still
    #: the *same* violation — splices, diffs, and cross-backend set
    #: comparisons are oblivious to waiver state by construction.
    waived: bool = dataclasses.field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.region.is_empty:
            raise ValueError("violation region must be non-empty")

    @property
    def deficit(self) -> int:
        """How far below the requirement the measurement fell."""
        return self.required - self.measured

    def waive(self) -> "Violation":
        """A copy marked waived (retained in reports, never blocking)."""
        return dataclasses.replace(self, waived=True)

    def translated(self, dx: int, dy: int) -> "Violation":
        return dataclasses.replace(self, region=self.region.translated(dx, dy))

    def transformed(self, transform) -> "Violation":
        return dataclasses.replace(self, region=transform.apply_rect(self.region))

    def __str__(self) -> str:
        target = f"L{self.layer}"
        if self.other_layer is not None:
            target += f"/L{self.other_layer}"
        return (
            f"{self.kind.value} on {target} at {self.region!r}: "
            f"{self.measured} < {self.required}"
        )


def violation_set(violations: Sequence[Violation]) -> FrozenSet[Violation]:
    """Deduplicated, order-free view used for cross-checker comparison."""
    return frozenset(violations)


def violation_sort_key(v: Violation):
    """Canonical total order over violations.

    The key covers every field, so two deduplicated violation lists are
    equal as *lists* exactly when they are equal as sets — backend
    equivalence tests compare ``CheckResult.violations`` directly instead
    of building multisets.
    """
    return (
        v.layer,
        v.kind.value,
        v.region,
        -1 if v.other_layer is None else v.other_layer,
        v.measured,
        v.required,
    )


def sort_violations(violations: Sequence[Violation]) -> List[Violation]:
    """Canonical report order (see :func:`violation_sort_key`)."""
    return sorted(violations, key=violation_sort_key)

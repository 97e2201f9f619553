"""Violation model shared by every checker in the repository.

All five checkers (OpenDRC sequential/parallel, the KLayout-like baselines,
and the X-Check reimplementation) report violations in this one vocabulary so
that results are directly set-comparable — the cross-validation tests rely
on exact equality of violation sets.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..geometry import Point, Polygon, Rect
from ..geometry.polygon import is_rectangle_ring

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


# ---------------------------------------------------------------------------
# Flat per-kind check registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FlatCheck:
    """Flat (pre-gathered geometry) check procedure of one rule kind.

    ``run(rule, layout, gather)`` receives the rule, the layout (for
    all-layer rules), and a *gather* callable with the signature
    ``gather(layer, margin) -> List[Polygon]`` plus ``gather.rect(layer,
    rect)`` and ``gather.window`` attributes, and returns the violations of
    the gathered sub-population. This is the windowed procedure's executable
    form of a rule kind; the hierarchical backends attach their own
    strategies to the same kind in :mod:`repro.core.plan`.
    """

    kind: str
    run: Callable


class CheckRegistry:
    """Kind-indexed registry of check procedures.

    Keys are :class:`~repro.core.rules.RuleKind` values (their ``.value``
    strings, so this module needs no import of the rule DSL). This registry
    plus the strategy table in :mod:`repro.core.plan` replace the three
    per-checker dispatch tables the sequential, parallel, and incremental
    paths used to maintain independently.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, FlatCheck] = {}

    @staticmethod
    def _key(kind) -> str:
        return getattr(kind, "value", kind)

    def register(self, kind, run: Callable) -> None:
        key = self._key(kind)
        if key in self._entries:
            raise ValueError(f"check for kind {key!r} already registered")
        self._entries[key] = FlatCheck(key, run)

    def get(self, kind) -> FlatCheck:
        _ensure_default_checks()
        try:
            return self._entries[self._key(kind)]
        except KeyError:
            raise NotImplementedError(
                f"no flat check registered for rule kind {self._key(kind)!r}"
            ) from None

    def __contains__(self, kind) -> bool:
        _ensure_default_checks()
        return self._key(kind) in self._entries

    def kinds(self) -> List[str]:
        _ensure_default_checks()
        return sorted(self._entries)


#: The flat checks every windowed/flat execution path dispatches through.
FLAT_CHECKS = CheckRegistry()


def _layers_of(rule, layout) -> List[int]:
    return [rule.layer] if rule.layer is not None else layout.layers()


def _flat_width(rule, layout, gather):
    from .width import check_width

    return check_width(gather(rule.layer, 0), rule.layer, rule.value)


def _flat_area(rule, layout, gather):
    from .area import check_area

    return check_area(gather(rule.layer, 0), rule.layer, rule.value)


def _flat_spacing(rule, layout, gather):
    from .spacing import check_spacing

    return check_spacing(gather(rule.layer, rule.value), rule.layer, rule.value)


def _flat_corner_spacing(rule, layout, gather):
    from .corner import check_corner_spacing

    return check_corner_spacing(
        gather(rule.layer, rule.value), rule.layer, rule.value
    )


def _flat_enclosure(rule, layout, gather):
    from .enclosure import check_enclosure

    return check_enclosure(
        gather(rule.layer, rule.value),
        gather(rule.other_layer, rule.value),
        rule.layer,
        rule.other_layer,
        rule.value,
    )


def _flat_min_overlap(rule, layout, gather):
    from ..geometry import union_all
    from .overlap import check_min_overlap

    tops = gather(rule.layer, 0)
    # Base partners only matter where they intersect a gathered top polygon,
    # which can extend beyond the window: gather the base layer over the
    # union of the window and every gathered top MBR.
    reach = union_all([gather.window] + [p.mbr for p in tops])
    bases = gather.rect(rule.other_layer, reach)
    return check_min_overlap(tops, bases, rule.layer, rule.other_layer, rule.value)


def _flat_rectilinear(rule, layout, gather):
    from .rectilinear import check_rectilinear

    out: List[Violation] = []
    for layer in _layers_of(rule, layout):
        out.extend(check_rectilinear(gather(layer, 0), layer))
    return out


def _flat_ensures(rule, layout, gather):
    from .ensure import check_ensures

    out: List[Violation] = []
    for layer in _layers_of(rule, layout):
        out.extend(check_ensures(gather(layer, 0), layer, rule.predicate))
    return out


def _flat_coloring(rule, layout, gather):
    """Windowed coloring via conflict-component closure.

    Coloring is a global graph property, but conflict edges are shorter
    than the rule distance, so growing the gather window by the rule value
    until no new polygon appears captures *complete* conflict components —
    on that closed sub-population the 2-coloring verdict (and every odd-
    cycle marker overlapping the original window) matches the full check.
    """
    from .coloring import check_two_colorable

    window = gather.window.inflated(rule.value)
    while True:
        polygons = gather.rect(rule.layer, window)
        grown = window
        for p in polygons:
            grown = grown.union(p.mbr.inflated(rule.value))
        if grown == window:
            break
        window = grown
    polygons.sort(key=lambda p: (p.mbr, p.canonical_vertices()))
    return check_two_colorable(polygons, rule.layer, rule.value)


_DEFAULTS_REGISTERED = False


def _ensure_default_checks() -> None:
    global _DEFAULTS_REGISTERED
    if _DEFAULTS_REGISTERED:
        return
    _DEFAULTS_REGISTERED = True
    FLAT_CHECKS.register("width", _flat_width)
    FLAT_CHECKS.register("area", _flat_area)
    FLAT_CHECKS.register("spacing", _flat_spacing)
    FLAT_CHECKS.register("corner_spacing", _flat_corner_spacing)
    FLAT_CHECKS.register("enclosure", _flat_enclosure)
    FLAT_CHECKS.register("min_overlap", _flat_min_overlap)
    FLAT_CHECKS.register("rectilinear", _flat_rectilinear)
    FLAT_CHECKS.register("ensures", _flat_ensures)
    FLAT_CHECKS.register("coloring", _flat_coloring)

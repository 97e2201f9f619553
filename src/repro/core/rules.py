"""General programming interface: chained rule definitions (paper §V-B).

Rules are described in chaining methods that resemble natural language,
mirroring the paper's Listing 1::

    engine.add_rules([
        polygons().is_rectilinear(),
        layer(19).width().greater_than(18),
        layer(19).spacing().greater_than(21),
        layer(21).enclosure(layer(19)).greater_than(5),
        layer(19).area().greater_than(1000),
        layer(20).polygons().ensures(lambda p: p.name != ""),
    ])

Two method categories exist, as in the paper: **selectors** locate the
target objects (``layer(19)``, ``.width()``, ``.polygons()``) and
**predicates** state what they must satisfy (``.greater_than(18)``,
``.is_rectilinear()``, ``.ensures(callable)``).

The finished :class:`Rule` carries *traits* (:class:`RuleKind`,
``is_intra``/``is_inter``) that the engine dispatches on — the runtime
analog of the paper's compile-time type traits (§V-D).
"""

from __future__ import annotations

import dataclasses
import enum
import runpy
from typing import Callable, List, Optional

from ..errors import RuleError
from ..geometry import Polygon
from ..reporting import SEVERITIES

__all__ = [
    "INTRA_KINDS",
    "Rule",
    "RuleKind",
    "SEVERITIES",
    "layer",
    "load_deck_file",
    "polygons",
    "validate_rules",
]


class RuleKind(enum.Enum):
    """Rule families the engine knows how to execute."""

    WIDTH = "width"
    SPACING = "spacing"
    ENCLOSURE = "enclosure"
    AREA = "area"
    RECTILINEAR = "rectilinear"
    ENSURES = "ensures"
    CORNER_SPACING = "corner_spacing"
    MIN_OVERLAP = "min_overlap"
    COLORING = "coloring"


#: Rule kinds decided inside a single polygon (paper §IV-C "intra-polygon").
INTRA_KINDS = frozenset(
    {RuleKind.WIDTH, RuleKind.AREA, RuleKind.RECTILINEAR, RuleKind.ENSURES}
)


@dataclasses.dataclass(frozen=True)
class Rule:
    """A fully specified design rule."""

    kind: RuleKind
    layer: Optional[int]  # None = all layers (shape/predicate rules only)
    value: int = 0
    other_layer: Optional[int] = None  # enclosure: the enclosing layer
    predicate: Optional[Callable[[Polygon], bool]] = None
    name: str = ""
    #: ``"error"`` violations block the check (non-zero exit, unless
    #: waived); ``"warning"`` violations are reported but never block.
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise RuleError(
                f"rule severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )
        if self.kind in (RuleKind.WIDTH, RuleKind.SPACING, RuleKind.AREA,
                         RuleKind.CORNER_SPACING, RuleKind.COLORING):
            if self.layer is None:
                raise RuleError(f"{self.kind.value} rule needs a layer")
            if self.value <= 0:
                raise RuleError(f"{self.kind.value} rule needs a positive value")
        if self.kind in (RuleKind.ENCLOSURE, RuleKind.MIN_OVERLAP):
            if self.layer is None or self.other_layer is None:
                raise RuleError(f"{self.kind.value} rule needs both layers")
            if self.value <= 0:
                raise RuleError(f"{self.kind.value} rule needs a positive value")
        if self.kind is RuleKind.ENSURES and self.predicate is None:
            raise RuleError("ensures rule needs a predicate callable")
        if not self.name:
            object.__setattr__(self, "name", self._default_name())

    def _default_name(self) -> str:
        layer = "*" if self.layer is None else f"L{self.layer}"
        if self.kind is RuleKind.ENCLOSURE:
            return f"{layer}.in.L{self.other_layer}.EN.{self.value}"
        if self.kind is RuleKind.MIN_OVERLAP:
            return f"{layer}.on.L{self.other_layer}.OV.{self.value}"
        suffix = {
            "width": "W",
            "spacing": "S",
            "area": "A",
            "corner_spacing": "CS",
            "coloring": "MP",
        }.get(self.kind.value)
        if suffix:
            return f"{layer}.{suffix}.{self.value}"
        return f"{layer}.{self.kind.value}"

    # -- traits (runtime analog of the paper's type traits) -----------------

    @property
    def is_intra(self) -> bool:
        """True if decidable per polygon (memoisable under transforms)."""
        return self.kind in INTRA_KINDS

    @property
    def is_inter(self) -> bool:
        return not self.is_intra

    @property
    def is_inter_layer(self) -> bool:
        return self.kind in (RuleKind.ENCLOSURE, RuleKind.MIN_OVERLAP)

    def named(self, name: str) -> "Rule":
        """A copy carrying a deck name like ``M1.S.1``."""
        return dataclasses.replace(self, name=name)

    def with_severity(self, severity: str) -> "Rule":
        """A copy carrying the given severity (``"error"``/``"warning"``)."""
        return dataclasses.replace(self, severity=severity)

    def as_warning(self) -> "Rule":
        """A copy demoted to ``warning`` severity (reported, never blocking)."""
        return self.with_severity("warning")

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Selectors
# ---------------------------------------------------------------------------


class MeasureSelector:
    """A (layer, quantity) selection awaiting its predicate."""

    def __init__(self, kind: RuleKind, layer: int, other_layer: Optional[int] = None):
        self._kind = kind
        self._layer = layer
        self._other_layer = other_layer

    def greater_than(self, value: int) -> Rule:
        """Require the selected quantity to be at least ``value``.

        (Paper Listing 1 uses ``greater_than``; like there, the threshold is
        the minimum legal value — a measurement strictly below it violates.)
        """
        return Rule(
            kind=self._kind,
            layer=self._layer,
            value=value,
            other_layer=self._other_layer,
        )


class PolygonSelector:
    """Selection of whole polygons (of one layer, or everywhere)."""

    def __init__(self, layer: Optional[int] = None):
        self._layer = layer

    def is_rectilinear(self) -> Rule:
        """All selected polygons must be axis-aligned."""
        return Rule(kind=RuleKind.RECTILINEAR, layer=self._layer)

    def ensures(self, predicate: Callable[[Polygon], bool]) -> Rule:
        """All selected polygons must satisfy a user-defined callable."""
        return Rule(kind=RuleKind.ENSURES, layer=self._layer, predicate=predicate)


class LayerSelector:
    """Entry point of per-layer rule chains."""

    def __init__(self, layer: int):
        if layer < 0:
            raise RuleError(f"layer numbers are non-negative, got {layer}")
        self.layer = layer

    def width(self) -> MeasureSelector:
        """Select the minimum interior width of the layer's polygons."""
        return MeasureSelector(RuleKind.WIDTH, self.layer)

    def spacing(self) -> MeasureSelector:
        """Select the minimum exterior spacing between the layer's shapes."""
        return MeasureSelector(RuleKind.SPACING, self.layer)

    def corner_spacing(self) -> MeasureSelector:
        """Select diagonal corner-to-corner (Euclidean) spacing.

        Roadmap extension beyond the paper's benchmarked rule set: catches
        diagonally offset shapes whose edges never overlap in projection.
        """
        return MeasureSelector(RuleKind.CORNER_SPACING, self.layer)

    def area(self) -> MeasureSelector:
        """Select the polygon area on this layer."""
        return MeasureSelector(RuleKind.AREA, self.layer)

    def enclosure(self, metal: "LayerSelector") -> MeasureSelector:
        """Select this layer's enclosure margin inside ``metal``'s polygons."""
        return MeasureSelector(RuleKind.ENCLOSURE, self.layer, other_layer=metal.layer)

    def overlap(self, base: "LayerSelector") -> MeasureSelector:
        """Select this layer's overlapping area with ``base``'s polygons.

        Minimum overlapping-area constraints between layers are among the
        modern rules the paper's introduction motivates.
        """
        return MeasureSelector(RuleKind.MIN_OVERLAP, self.layer, other_layer=base.layer)

    def same_mask_spacing(self) -> MeasureSelector:
        """Select the same-mask spacing under double patterning.

        The layer must decompose into two masks such that same-mask shapes
        are at least the rule value apart (paper §II: multi-color design
        rules); every odd cycle in the conflict graph is reported.
        """
        return MeasureSelector(RuleKind.COLORING, self.layer)

    def polygons(self) -> PolygonSelector:
        """Select the layer's polygons as whole objects."""
        return PolygonSelector(self.layer)


def layer(number: int) -> LayerSelector:
    """Start a rule chain for one layer (``db.layer(19)`` in Listing 1)."""
    return LayerSelector(number)


def polygons() -> PolygonSelector:
    """Start a rule chain over all polygons (``db.polygons()`` in Listing 1)."""
    return PolygonSelector(None)


def validate_rules(rules: List[Rule]) -> None:
    """Reject duplicate rule names (decks address results by name)."""
    seen = set()
    for rule in rules:
        if rule.name in seen:
            raise RuleError(f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)


def load_deck_file(path: str) -> List[Rule]:
    """The rules a Python deck file defines as ``RULES = [<Rule>, ...]``.

    Raises :class:`RuleError` when the file cannot be run (missing, a
    directory, a syntax error, an exception while it executes) or does not
    define ``RULES`` as a list of rules.
    """
    try:
        namespace = runpy.run_path(path)
    except Exception as error:  # the deck is arbitrary user code
        raise RuleError(f"cannot read deck {path}: {error}") from None
    rules = namespace.get("RULES")
    if not isinstance(rules, list) or not all(isinstance(r, Rule) for r in rules):
        raise RuleError(f"{path} must define RULES = [<Rule>, ...]")
    return rules

"""Raw stream-level GDSII object model.

This mirrors the recursive grammar of the paper's Fig. 2: a *library* is a
list of *structures*, a structure is a list of *elements*, and an element is
a boundary, path, structure reference (SREF), or array reference (AREF).
The model stores exactly what the stream stores — no geometry semantics; the
layout database (:mod:`repro.layout`) is built from it by
:mod:`repro.layout.builder`.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List, Tuple

from ..errors import GdsiiError

DEFAULT_TIMESTAMP = (2023, 1, 1, 0, 0, 0)


@dataclasses.dataclass
class GdsStrans:
    """Decoded STRANS/MAG/ANGLE group of a reference or text element."""

    mirror_x: bool = False
    magnification: float = 1.0
    angle: float = 0.0

    @property
    def is_identity(self) -> bool:
        return not self.mirror_x and self.magnification == 1.0 and self.angle == 0.0


@dataclasses.dataclass
class GdsBoundary:
    """BOUNDARY element: a filled polygon on (layer, datatype)."""

    layer: int
    datatype: int
    xy: List[Tuple[int, int]]
    properties: Dict[int, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class GdsPath:
    """PATH element: a wire with a width on (layer, datatype)."""

    layer: int
    datatype: int
    width: int
    xy: List[Tuple[int, int]]
    pathtype: int = 0
    properties: Dict[int, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class GdsSref:
    """SREF element: one placement of another structure."""

    sname: str
    origin: Tuple[int, int]
    strans: GdsStrans = dataclasses.field(default_factory=GdsStrans)
    properties: Dict[int, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class GdsAref:
    """AREF element: a ``columns x rows`` array of placements.

    ``xy`` holds the three GDSII reference points: the array origin, the
    point ``origin + columns * column_step``, and ``origin + rows * row_step``.
    """

    sname: str
    columns: int
    rows: int
    xy: List[Tuple[int, int]]
    strans: GdsStrans = dataclasses.field(default_factory=GdsStrans)
    properties: Dict[int, str] = dataclasses.field(default_factory=dict)

    @property
    def origin(self) -> Tuple[int, int]:
        return self.xy[0]

    @property
    def column_step(self) -> Tuple[int, int]:
        ox, oy = self.xy[0]
        cx, cy = self.xy[1]
        if self.columns == 0:
            raise GdsiiError("AREF with zero columns")
        return ((cx - ox) // self.columns, (cy - oy) // self.columns)

    @property
    def row_step(self) -> Tuple[int, int]:
        ox, oy = self.xy[0]
        rx, ry = self.xy[2]
        if self.rows == 0:
            raise GdsiiError("AREF with zero rows")
        return ((rx - ox) // self.rows, (ry - oy) // self.rows)


@dataclasses.dataclass
class GdsStructure:
    """BGNSTR..ENDSTR block: a named list of elements."""

    name: str
    elements: List[object] = dataclasses.field(default_factory=list)
    timestamp: Tuple[int, ...] = DEFAULT_TIMESTAMP


@dataclasses.dataclass
class GdsLibrary:
    """BGNLIB..ENDLIB block: the whole stream file."""

    name: str = "LIB"
    user_unit: float = 1e-3  # database units per user unit
    meters_per_unit: float = 1e-9  # meters per database unit
    structures: List[GdsStructure] = dataclasses.field(default_factory=list)
    timestamp: Tuple[int, ...] = DEFAULT_TIMESTAMP

    def structure(self, name: str) -> GdsStructure:
        for s in self.structures:
            if s.name == name:
                return s
        raise GdsiiError(f"no structure named {name!r} in library {self.name!r}")

    def structure_names(self) -> List[str]:
        return [s.name for s in self.structures]

    def top_structures(self) -> List[GdsStructure]:
        """Structures never referenced by any SREF/AREF (the hierarchy roots)."""
        referenced = set()
        for s in self.structures:
            for element in s.elements:
                if isinstance(element, (GdsSref, GdsAref)):
                    referenced.add(element.sname)
        return [s for s in self.structures if s.name not in referenced]

    def validate_references(self) -> None:
        """Raise if any SREF/AREF names a structure not in the library."""
        known = set(self.structure_names())
        for s in self.structures:
            for element in s.elements:
                if isinstance(element, (GdsSref, GdsAref)) and element.sname not in known:
                    raise GdsiiError(
                        f"structure {s.name!r} references undefined structure "
                        f"{element.sname!r}"
                    )


def aref_origins(aref: GdsAref) -> List[Tuple[int, int]]:
    """Expand an AREF into the list of individual placement origins."""
    ox, oy = aref.origin
    csx, csy = aref.column_step
    rsx, rsy = aref.row_step
    origins: List[Tuple[int, int]] = []
    for row in range(aref.rows):
        for col in range(aref.columns):
            origins.append((ox + col * csx + row * rsx, oy + col * csy + row * rsy))
    return origins


def strans_angle_to_rotation(angle: float) -> int:
    """Map a REAL8 ANGLE to the engine's integer multiple-of-90 rotation."""
    rotation = int(round(angle)) % 360
    if abs(angle - round(angle)) > 1e-9 or rotation % 90 != 0:
        raise GdsiiError(f"unsupported rotation angle {angle} (must be a multiple of 90)")
    return rotation


def magnification_scalar(mag: float):
    """Convert a REAL8 MAG to an exact int/Fraction for the engine."""
    if mag == 1:  # no MAG record, or a unit one: the common case builds nothing
        return 1
    if mag <= 0:
        raise GdsiiError(f"non-positive magnification {mag}")
    frac = Fraction(mag).limit_denominator(1 << 20)
    if abs(float(frac) - mag) > 1e-12:
        raise GdsiiError(f"magnification {mag} is not representable exactly")
    return int(frac) if frac.denominator == 1 else frac

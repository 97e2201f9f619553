"""GDSII-style placement transformations.

An SREF/AREF placement applies, in GDSII order: optional reflection about the
x-axis, rotation, magnification, then translation to the placement origin.
OpenDRC's intra-polygon memoisation (paper §IV-C) relies on knowing which
check properties each transform preserves, so :class:`Transform` exposes
exactly those invariants (:meth:`preserves_distances`,
:meth:`preserves_rectilinearity`, :meth:`area_scale`).

Rotations are restricted to multiples of 90 degrees; arbitrary angles would
break rectilinearity, which the engine (like the paper's benchmarks) assumes.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Tuple, Union

from ..errors import GeometryError
from .point import Point
from .rect import EMPTY_RECT, Rect

Scalar = Union[int, Fraction]

_ROTATION_MATRICES = {
    0: (1, 0, 0, 1),
    90: (0, -1, 1, 0),
    180: (-1, 0, 0, -1),
    270: (0, 1, -1, 0),
}


class Transform(NamedTuple):
    """Reflection (about x) -> rotation (ccw, multiple of 90) -> magnification -> translation."""

    dx: int = 0
    dy: int = 0
    rotation: int = 0
    mirror_x: bool = False
    magnification: Scalar = 1

    @classmethod
    def identity(cls) -> "Transform":
        return cls()

    def _validate(self) -> None:
        if self.rotation % 90 != 0:
            raise GeometryError(
                f"rotation {self.rotation} is not a multiple of 90 degrees; "
                "non-rectilinear placements are unsupported"
            )
        if self.magnification <= 0:
            raise GeometryError(f"magnification must be positive, got {self.magnification}")

    @property
    def _matrix(self) -> tuple:
        """Linear part as ``(a, b, c, d)`` with ``x' = a x + b y``, ``y' = c x + d y``."""
        return _matrix_of(self.rotation, self.mirror_x, self.magnification)

    # -- application ---------------------------------------------------------

    def apply(self, p: Point) -> Point:
        """Transform a point. Raises if a magnification makes it non-integral."""
        a, b, c, d = self._matrix
        x = a * p.x + b * p.y + self.dx
        y = c * p.x + d * p.y + self.dy
        if isinstance(x, int) and isinstance(y, int):
            return Point(x, y)
        if not (float(x).is_integer() and float(y).is_integer()):
            raise GeometryError(f"transform {self} takes {p} off the integer grid")
        return Point(int(x), int(y))

    def apply_many(self, points: Iterable[Point]) -> List[Point]:
        if self.magnification != 1:
            return [self.apply(p) for p in points]
        a, b, c, d = self._matrix  # integers: grid points stay on the grid
        dx, dy = self.dx, self.dy
        return [Point(a * x + b * y + dx, c * x + d * y + dy) for x, y in points]

    def apply_rect(self, r: Rect) -> Rect:
        """Transform a rect; the result is the MBR of the transformed corners."""
        if r.is_empty:
            return EMPTY_RECT
        p1 = self.apply(Point(r.xlo, r.ylo))
        p2 = self.apply(Point(r.xhi, r.yhi))
        return Rect(min(p1.x, p2.x), min(p1.y, p2.y), max(p1.x, p2.x), max(p1.y, p2.y))

    # -- composition -----------------------------------------------------------

    def compose(self, inner: "Transform") -> "Transform":
        """Return the transform equivalent to applying ``inner`` first, then self.

        This is what descending the hierarchy tree accumulates: the parent's
        placement composed over the child's.
        """
        a, b, c, d = self._matrix
        shift_x = a * inner.dx + b * inner.dy + self.dx
        shift_y = c * inner.dx + d * inner.dy + self.dy
        if not isinstance(shift_x, int) or not isinstance(shift_y, int):
            if not (float(shift_x).is_integer() and float(shift_y).is_integer()):
                raise GeometryError("composed transform has a non-integral translation")
        rotation = (self.rotation + (-inner.rotation if self.mirror_x else inner.rotation)) % 360
        mirror = self.mirror_x != inner.mirror_x
        if self.magnification == 1 and inner.magnification == 1:
            mag: Scalar = 1
        else:
            mag = _normalize_scalar(
                Fraction(self.magnification) * Fraction(inner.magnification)
            )
        return Transform(int(shift_x), int(shift_y), rotation, mirror, mag)

    # -- invariants used by task pruning (paper §IV-C) -------------------------

    @property
    def preserves_distances(self) -> bool:
        """True if edge-to-edge distances are unchanged (width/space reusable)."""
        return self.magnification == 1

    @property
    def preserves_rectilinearity(self) -> bool:
        """Always true for validated transforms (rotations are multiples of 90)."""
        self._validate()
        return True

    @property
    def area_scale(self) -> Fraction:
        """Factor by which polygon areas scale under this transform."""
        m = Fraction(self.magnification)
        return m * m

    def __repr__(self) -> str:
        parts = [f"dx={self.dx}", f"dy={self.dy}"]
        if self.rotation:
            parts.append(f"rot={self.rotation}")
        if self.mirror_x:
            parts.append("mirror")
        if Fraction(self.magnification) != 1:
            parts.append(f"mag={self.magnification}")
        return "Transform(" + ", ".join(parts) + ")"


def _normalize_scalar(value: Fraction) -> Scalar:
    return int(value) if value.denominator == 1 else value


@functools.lru_cache(maxsize=None)
def _matrix_of(rotation: int, mirror_x: bool, magnification: Scalar) -> tuple:
    if rotation % 90 != 0:
        raise GeometryError(
            f"rotation {rotation} is not a multiple of 90 degrees; "
            "non-rectilinear placements are unsupported"
        )
    if magnification <= 0:
        raise GeometryError(f"magnification must be positive, got {magnification}")
    a, b, c, d = _ROTATION_MATRICES[rotation % 360]
    if mirror_x:
        # GDSII reflects about the x-axis *before* rotating: (x, y) -> (x, -y).
        b, d = -b, -d
    if magnification != 1:
        a, b, c, d = (
            a * magnification,
            b * magnification,
            c * magnification,
            d * magnification,
        )
    return (a, b, c, d)


IDENTITY = Transform()


# ---------------------------------------------------------------------------
# Rigid placements as integer rows ``(a, b, c, d, dx, dy)``: x' = a x + b y +
# dx, y' = c x + d y + dy (the row layout of :mod:`repro.hierarchy.edgepack`).
# Axis-aligned, so either b == c == 0 or a == d == 0; the determinant is -1
# exactly for a mirroring placement.
# ---------------------------------------------------------------------------

Row = Tuple[int, int, int, int, int, int]

IDENTITY_ROW: Row = (1, 0, 0, 1, 0, 0)

_ORIENTATION_OF: Dict[tuple, Tuple[int, bool]] = {
    _matrix_of(rotation, mirror, 1): (rotation, mirror)
    for rotation in (0, 90, 180, 270)
    for mirror in (False, True)
}


def rigid_row(transform: Transform) -> Row:
    """The row of a placement with ``preserves_distances``."""
    return transform._matrix + (transform.dx, transform.dy)


def row_transform(row: Row) -> Transform:
    """The placement a row stands for."""
    rotation, mirror = _ORIENTATION_OF[row[:4]]
    return Transform(row[4], row[5], rotation, mirror)


def compose_rows(outer: Row, inner: Row) -> Row:
    """``inner`` first, then ``outer`` (as :meth:`Transform.compose`)."""
    a, b, c, d, dx, dy = outer
    p, q, r, s, ex, ey = inner
    return (
        a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s,
        a * ex + b * ey + dx, c * ex + d * ey + dy,
    )


def invert_row(row: Row) -> Row:
    """The inverse placement: the linear part is orthogonal, so its transpose."""
    a, b, c, d, dx, dy = row
    return (a, c, b, d, -(a * dx + c * dy), -(b * dx + d * dy))


def row_rect(row: Row, rect: Rect) -> Rect:
    """A non-empty rect under a row (as :meth:`Transform.apply_rect`)."""
    a, b, c, d, dx, dy = row
    xlo, ylo, xhi, yhi = rect
    x1, x2 = a * xlo + b * ylo, a * xhi + b * yhi
    y1, y2 = c * xlo + d * ylo, c * xhi + d * yhi
    if x1 > x2:
        x1, x2 = x2, x1
    if y1 > y2:
        y1, y2 = y2, y1
    return Rect(x1 + dx, y1 + dy, x2 + dx, y2 + dy)

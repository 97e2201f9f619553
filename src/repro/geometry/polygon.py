"""Rectilinear polygons.

A :class:`Polygon` stores its boundary as a list of vertices in **clockwise**
order (the constructor normalizes orientation), without repeating the first
vertex at the end. Edges derived from the boundary therefore carry a
well-defined interior side (see :mod:`repro.geometry.edge`), which is what the
paper's edge-based check procedures rely on (paper §IV-D: "Polygon vertices
are stored in clockwise order, so that positional relations of edges are
determined accordingly"). Areas use the Shoelace Theorem, as in the paper.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import GeometryError
from .edge import Edge
from .point import Point
from .rect import Rect
from .transform import Transform

#: ``(fixed, lo, hi, interior sign)`` of one boundary edge, and the
#: ``(horizontal rows, vertical rows)`` table ``Polygon.edge_rows`` builds.
EdgeRow = Tuple[int, int, int, int]
EdgeRows = Tuple[List[EdgeRow], List[EdgeRow]]


def signed_area2(vertices: Sequence[Point]) -> int:
    """Twice the signed Shoelace area (positive for counter-clockwise)."""
    total = 0
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        q = vertices[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return total


class Polygon:
    """A simple rectilinear polygon on the integer grid.

    Parameters
    ----------
    vertices:
        Boundary vertices in either orientation; normalized to clockwise.
        Collinear runs are merged so every stored edge is a maximal segment.
    name:
        Optional object name (GDSII allows named elements via PROPATTR; the
        paper's Listing 1 third rule checks for non-empty names).
    validate:
        When true (default), reject non-rectilinear or degenerate input.
    """

    __slots__ = ("vertices", "name", "_mbr")

    def __init__(
        self,
        vertices: Iterable[Point],
        *,
        name: str = "",
        validate: bool = True,
    ) -> None:
        verts = [p if isinstance(p, Point) else Point(*p) for p in vertices]
        if verts and verts[0] == verts[-1]:
            verts = verts[:-1]  # tolerate GDSII-style closed rings
        verts = _merge_collinear(verts)
        if validate:
            _validate_rectilinear(verts)
        if signed_area2(verts) > 0:
            verts.reverse()  # normalize to clockwise
        self.vertices: Tuple[Point, ...] = tuple(verts)
        self.name = name
        self._mbr: Optional[Rect] = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _normalised(
        cls, vertices: Tuple[Point, ...], name: str = "", mbr: Optional[Rect] = None
    ) -> "Polygon":
        """Wrap ``vertices`` exactly as given: no merge, validation or reorder.

        Only for callers that have established the constructor would store
        this very tuple (open ring, maximal edges, valid, clockwise) and
        that ``mbr``, when given, is the ring's bounding rectangle.
        """
        polygon = cls.__new__(cls)
        polygon.vertices = vertices
        polygon.name = name
        polygon._mbr = mbr
        return polygon

    @classmethod
    def from_rect(cls, rect: Rect, *, name: str = "") -> "Polygon":
        """Rectangle polygon covering ``rect`` (which must be non-degenerate)."""
        if rect.is_empty or rect.width == 0 or rect.height == 0:
            raise GeometryError(f"cannot build a polygon from degenerate {rect!r}")
        return cls(
            [
                Point(rect.xlo, rect.ylo),
                Point(rect.xlo, rect.yhi),
                Point(rect.xhi, rect.yhi),
                Point(rect.xhi, rect.ylo),
            ],
            name=name,
        )

    @classmethod
    def from_rect_coords(
        cls, xlo: int, ylo: int, xhi: int, yhi: int, *, name: str = ""
    ) -> "Polygon":
        """Rectangle polygon from corner coordinates."""
        return cls.from_rect(Rect(xlo, ylo, xhi, yhi), name=name)

    # -- fundamental properties -----------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def edges(self) -> List[Edge]:
        """Directed boundary edges, interior to the right of each."""
        n = len(self.vertices)
        return [Edge(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def edge_rows(self) -> EdgeRows:
        """The boundary as ``(horizontal rows, vertical rows)``, in ring order.

        A row is ``(fixed, lo, hi, sign)``: the coordinate both endpoints
        share, the span of the varying one, and the +/-1 component of the
        interior normal along the perpendicular axis — all the distance
        checks read of an edge (paper §IV-D). Built per call, never stored:
        a table pinned on every polygon a check touches raised peak RSS 4-6 %.
        """
        horizontal: List[EdgeRow] = []
        vertical: List[EdgeRow] = []
        ring = self.vertices
        for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
            if y1 == y2 and x1 != x2:  # EAST travel has interior south (-1)
                horizontal.append((y1, x1, x2, -1) if x1 < x2 else (y1, x2, x1, 1))
            elif x1 == x2 and y1 != y2:  # NORTH travel has interior east (+1)
                vertical.append((x1, y1, y2, 1) if y1 < y2 else (x1, y2, y1, -1))
            else:
                bad = Edge(Point(x1, y1), Point(x2, y2))
                raise GeometryError(f"degenerate or non-rectilinear edge: {bad!r}")
        return horizontal, vertical

    @property
    def area(self) -> int:
        """Enclosed area by the Shoelace Theorem (paper §IV-D)."""
        return abs(signed_area2(self.vertices)) // 2

    @property
    def perimeter(self) -> int:
        return sum(e.length for e in self.edges())

    @property
    def mbr(self) -> Rect:
        if self._mbr is None:
            xs, ys = zip(*self.vertices)
            self._mbr = Rect(min(xs), min(ys), max(xs), max(ys))
        return self._mbr

    @property
    def is_rectilinear(self) -> bool:
        """True if every edge is axis-parallel (the Listing-1 predicate)."""
        n = len(self.vertices)
        for i in range(n):
            p = self.vertices[i]
            q = self.vertices[(i + 1) % n]
            if p.x != q.x and p.y != q.y:
                return False
        return True

    @property
    def is_rectangle(self) -> bool:
        """True for a 4-ring of alternating axis-parallel, non-degenerate edges."""
        if len(self.vertices) != 4:
            return False
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = self.vertices
        if x0 == x1:
            return y1 == y2 and x2 == x3 and y3 == y0 and x0 != x2 and y0 != y2
        return y0 == y1 and x1 == x2 and y2 == y3 and x3 == x0 and x0 != x2 and y0 != y2

    # -- point location ------------------------------------------------------

    def contains_point(self, p: Point, *, include_boundary: bool = True) -> bool:
        """Point-in-polygon via crossing number on the vertical edges."""
        x, y = p
        crossings = 0
        ring = self.vertices
        for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
            if x1 == x2:
                lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
                if lo <= y <= hi:
                    if x == x1:
                        return include_boundary
                    # Half-open rule avoids double-counting shared vertices.
                    if x1 > x and y < hi:
                        crossings += 1
            elif y == y1 and (x1 <= x <= x2 or x2 <= x <= x1):
                return include_boundary
        return crossings % 2 == 1

    # -- transformation ----------------------------------------------------------

    def transformed(self, transform: Transform) -> "Polygon":
        """Apply a placement transform; orientation is re-normalized."""
        points = transform.apply_many(self.vertices)
        if transform.magnification != 1:
            return Polygon(points, name=self.name, validate=False)
        # The rigid image of a normalised ring is one too, once a mirror's
        # flip to counter-clockwise is undone.
        if transform.mirror_x:
            points.reverse()
        return Polygon._normalised(tuple(points), self.name)

    def translated(self, dx: int, dy: int) -> "Polygon":
        return Polygon(
            [v.translated(dx, dy) for v in self.vertices], name=self.name, validate=False
        )

    # -- value semantics ------------------------------------------------------------

    def canonical_vertices(self) -> Tuple[Point, ...]:
        """Vertices rotated so the lexicographically smallest comes first.

        Two polygons are geometrically identical iff their canonical vertex
        tuples match; used for memoisation keys and in tests.
        """
        if not self.vertices:
            return ()
        start = min(range(len(self.vertices)), key=lambda i: self.vertices[i])
        return self.vertices[start:] + self.vertices[:start]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.canonical_vertices() == other.canonical_vertices()

    def __hash__(self) -> int:
        return hash(self.canonical_vertices())

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Polygon({len(self.vertices)} vertices{label}, mbr={self.mbr!r})"


def _merge_collinear(vertices: List[Point]) -> List[Point]:
    """Drop straight-through vertices (collinear, same direction of travel).

    Spikes that double back (collinear but reversing) and duplicate vertices
    are kept so that validation can reject them with a clear error.
    """
    if len(vertices) < 3:
        return list(vertices)
    result: List[Point] = []
    n = len(vertices)
    for i in range(n):
        prev = vertices[(i - 1) % n]
        cur = vertices[i]
        nxt = vertices[(i + 1) % n]
        d1 = (cur.x - prev.x, cur.y - prev.y)
        d2 = (nxt.x - cur.x, nxt.y - cur.y)
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        dot = d1[0] * d2[0] + d1[1] * d2[1]
        if cross == 0 and dot > 0:
            continue
        result.append(cur)
    return result


def _validate_rectilinear(vertices: Sequence[Point]) -> None:
    if len(vertices) < 4:
        raise GeometryError(f"polygon needs at least 4 vertices, got {len(vertices)}")
    if len(set(vertices)) != len(vertices):
        raise GeometryError("polygon has repeated vertices")
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        q = vertices[(i + 1) % n]
        if p.x != q.x and p.y != q.y:
            raise GeometryError(f"non-rectilinear edge {p} -> {q}")
        if p == q:
            raise GeometryError(f"degenerate zero-length edge at {p}")
    # Rectilinear simple polygons alternate horizontal/vertical edges.
    for i in range(n):
        p = vertices[i]
        q = vertices[(i + 1) % n]
        r = vertices[(i + 2) % n]
        first_horizontal = p.y == q.y
        second_horizontal = q.y == r.y
        if first_horizontal == second_horizontal:
            raise GeometryError(f"consecutive parallel edges around {q}")
    if signed_area2(vertices) == 0:
        raise GeometryError("polygon has zero area")

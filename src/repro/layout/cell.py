"""Cells and cell references.

A *cell* (the paper uses "cell" and "structure" interchangeably) owns local
geometry per layer plus references to other cells. A reference stores the
referenced cell's **name** and a placement transform — the Python analog of
the paper's "a structure reference effectively stores a pointer to the
structure definition to reduce memory consumption" (§IV-A): geometry is never
copied per instance. Array references (AREF) keep their compact
``columns x rows`` form and expand on demand.

Local geometry is stored packed, one :class:`RingBuffer` per (cell, layer):
the coordinates of every ring back to back, where each ring starts, and one
MBR per ring (paper §IV-E hands the device "flattened edge buffers"; here
they are the storage format, filled by the GDSII reader). ``Polygon``
objects are a view built on demand by :meth:`Cell.polygons`.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..geometry import Point, Polygon, Rect, Transform
from ..geometry.transform import Row


@dataclasses.dataclass(frozen=True)
class Repetition:
    """Regular ``columns x rows`` array of placements (GDSII AREF)."""

    columns: int
    rows: int
    column_step: Tuple[int, int]
    row_step: Tuple[int, int]

    @property
    def count(self) -> int:
        return self.columns * self.rows

    def offsets(self) -> Iterator[Tuple[int, int]]:
        """All array offsets relative to the reference origin."""
        csx, csy = self.column_step
        rsx, rsy = self.row_step
        for row in range(self.rows):
            for col in range(self.columns):
                yield (col * csx + row * rsx, col * csy + row * rsy)


@dataclasses.dataclass(frozen=True)
class CellReference:
    """One SREF/AREF: an instantiation of ``cell_name`` under ``transform``."""

    cell_name: str
    transform: Transform = Transform()
    repetition: Optional[Repetition] = None

    @property
    def placement_count(self) -> int:
        return self.repetition.count if self.repetition else 1

    def placements(self) -> Iterator[Transform]:
        """Expand to one transform per placement (a single one for SREF)."""
        if self.repetition is None:
            yield self.transform
            return
        t = self.transform
        for dx, dy in self.repetition.offsets():
            # Array offsets apply in the *parent* coordinate system, i.e.
            # after the reference's own rotate/mirror, so they add to the
            # translation part directly.
            yield Transform(t.dx + dx, t.dy + dy, t.rotation, t.mirror_x, t.magnification)


class RingBuffer:
    """The rings of one (cell, layer), packed.

    ``coords``
        ``x0, y0, x1, y1, ...`` of every ring back to back, each ring as the
        :class:`~repro.geometry.Polygon` constructor normalises it: open,
        clockwise, collinear runs merged.
    ``offsets``
        Ring ``i`` is ``coords[offsets[i]:offsets[i + 1]]``.
    ``mbrs``
        ``xlo, ylo, xhi, yhi`` of ring ``i`` at ``mbrs[4 * i:4 * i + 4]``.
    ``names``
        Ring index -> object name, for the rings that carry one.

    The three arrays are stdlib ``array('q')`` (native int64), so consumers
    read them through ``memoryview`` / ``np.frombuffer`` without a copy.
    :meth:`polygons` is a cached *view*; every mutation drops it, and it is
    neither compared nor pickled. Every mutation also clears ``_stamped``,
    which :meth:`Cell.stamp` sets: a cell's source token holds only while
    each of its buffers is still stamped.
    """

    __slots__ = ("coords", "offsets", "mbrs", "names", "_view", "_stamped")

    def __init__(self) -> None:
        self.coords = array("q")
        self.offsets = array("q", (0,))
        self.mbrs = array("q")
        self.names: Dict[int, str] = {}
        self._view: Optional[Tuple[Polygon, ...]] = None
        self._stamped = False

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getstate__(self):
        return self.coords, self.offsets, self.mbrs, self.names

    def __setstate__(self, state) -> None:
        self.coords, self.offsets, self.mbrs, self.names = state
        self._view = None
        self._stamped = False

    def copy(self) -> "RingBuffer":
        """A buffer with copies of this one's arrays and names (no view)."""
        twin = RingBuffer()
        twin.coords = array("q", self.coords)
        twin.offsets = array("q", self.offsets)
        twin.mbrs = array("q", self.mbrs)
        twin.names = dict(self.names)
        return twin

    def same_rings(self, other: "RingBuffer") -> bool:
        """True if both hold the same rings in the same order (names aside)."""
        return self.coords == other.coords and self.offsets == other.offsets

    def ring_bytes(self, start: int = 0, stop: Optional[int] = None) -> List[bytes]:
        """The coordinate bytes (native int64) of rings ``start`` up to
        ``stop`` (by default every ring), in storage order."""
        raw = self.coords.tobytes()
        offsets = self.offsets
        if start or stop is not None:
            offsets = offsets[start : len(offsets) if stop is None else stop + 1]
        return [raw[8 * a : 8 * b] for a, b in zip(offsets, offsets[1:])]

    # -- one ring, read off the arrays ----------------------------------------

    def mbr(self, index: int) -> Rect:
        """Ring ``index``'s MBR, from the table."""
        return Rect._make(self.mbrs[4 * index : 4 * index + 4])

    def points(self, index: int, row: Optional[Row] = None) -> List[Tuple[int, int]]:
        """Ring ``index``'s vertices as ``(x, y)`` pairs, clockwise, optionally
        under a rigid placement row (a mirror's reversal undone, as
        :meth:`Polygon.transformed` does)."""
        coords = self.coords
        start, stop = self.offsets[index], self.offsets[index + 1]
        pairs = zip(coords[start:stop:2], coords[start + 1 : stop : 2])
        if row is None:
            return list(pairs)
        a, b, c, d, dx, dy = row
        ring = [(a * x + b * y + dx, c * x + d * y + dy) for x, y in pairs]
        if a * d - b * c < 0:
            ring.reverse()
        return ring

    # -- mutation ----------------------------------------------------------

    def append_ring(self, flat: Sequence[int], mbr: Sequence[int], name: str = "") -> None:
        """Append a ring that is already normalised, with its MBR.

        The caller vouches that every value fits the arrays (an int64).
        """
        if name:
            self.names[len(self)] = name
        self.coords.extend(flat)
        self.mbrs.extend(mbr)
        self.offsets.append(len(self.coords))
        self._view = None
        self._stamped = False

    def append_rectangles(self, mbrs: array) -> None:
        """Append one rectangle per MBR in ``mbrs`` (an ``array('q')`` laid out
        as :attr:`mbrs` is), each as the ring ``(xlo, ylo), (xlo, yhi),
        (xhi, yhi), (xhi, ylo)``: what the ``Polygon`` constructor stores for
        that ring. The caller vouches that ``xlo < xhi`` and ``ylo < yhi``.
        """
        count = len(mbrs) >> 2
        rings = array("q", bytes(64 * count))
        for k, column in enumerate((0, 1, 0, 3, 2, 3, 2, 1)):
            rings[k::8] = mbrs[column::4]
        start = len(self.coords)
        self.coords.extend(rings)
        self.mbrs.extend(mbrs)
        self.offsets.fromlist(list(range(start + 8, start + 8 * count + 1, 8)))
        self._view = None
        self._stamped = False

    def append(self, polygon: Polygon) -> None:
        """Append ``polygon``'s ring (a ``Polygon`` is normalised by construction)."""
        # Converted first: a coordinate the arrays cannot hold raises here,
        # before anything is written.
        flat = array("q", [c for vertex in polygon.vertices for c in vertex])
        self.append_ring(flat, array("q", polygon.mbr), polygon.name)

    def remove(self, index: int) -> Polygon:
        """Remove ring ``index`` (negative counts from the end) and return it."""
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(f"ring index {index} out of range for {count} rings")
        removed = self.polygon(index)
        start, stop = self.offsets[index], self.offsets[index + 1]
        del self.coords[start:stop]
        del self.mbrs[4 * index : 4 * index + 4]
        tail = [offset - (stop - start) for offset in self.offsets[index + 2 :]]
        del self.offsets[index + 1 :]
        self.offsets.extend(tail)
        self.names = {
            (i if i < index else i - 1): name
            for i, name in self.names.items()
            if i != index
        }
        self._view = None
        self._stamped = False
        return removed

    # -- the object view -----------------------------------------------------

    def polygon(self, index: int) -> Polygon:
        """Ring ``index`` as a ``Polygon``; built on the spot unless the view exists."""
        if self._view is not None:
            return self._view[index]
        coords = self.coords
        start, stop = self.offsets[index], self.offsets[index + 1]
        ring = tuple(map(Point._make, zip(coords[start:stop:2], coords[start + 1 : stop : 2])))
        mbr = Rect._make(self.mbrs[4 * index : 4 * index + 4])
        return Polygon._normalised(ring, self.names.get(index, ""), mbr)

    def polygons(self) -> Tuple[Polygon, ...]:
        """Every ring as a ``Polygon``, in storage order.

        ``Polygon.mbr`` stays lazy here: computed from the vertices it shares
        their integers, where a rect read off the table would hold four more
        per polygon (+2 % peak RSS on a cold check, which views every ring).
        """
        view = self._view
        if view is None:
            coords, offsets = self.coords, self.offsets
            points = list(map(Point._make, zip(coords[0::2], coords[1::2])))
            name_of = self.names.get
            wrap = Polygon._normalised
            view = self._view = tuple(
                wrap(tuple(points[a >> 1 : b >> 1]), name_of(i, ""))
                for i, (a, b) in enumerate(zip(offsets, offsets[1:]))
            )
        return view


#: Where a cell's content came from: the length and SHA-256 digest of the
#: stream bytes of its structure, from its STRNAME record through ENDSTR.
SourceToken = Tuple[int, bytes]


class Cell:
    """A named structure: per-layer packed rings plus child references.

    A cell read from a GDSII stream carries its :attr:`source_token`, so the
    next version of the layout can tell from bytes alone that the structure
    did not change. Every edit through the cell or through one of its
    buffers' mutators drops the token, and so does any change to
    :attr:`references` (compared against the list as it was stamped).
    """

    __slots__ = ("name", "_rings", "references", "_token", "_token_refs")

    def __init__(self, name: str) -> None:
        self.name = name
        self._rings: Dict[int, RingBuffer] = {}
        self.references: List[CellReference] = []
        self._token: Optional[SourceToken] = None
        self._token_refs: Optional[List[CellReference]] = None

    # -- source token --------------------------------------------------------

    @property
    def source_token(self) -> Optional[SourceToken]:
        """The bytes this cell holds exactly the decoding of, or ``None``
        (built in memory, or edited since it was read)."""
        token = self._token
        if token is not None and (
            self.references != self._token_refs
            or not all(rings._stamped for rings in self._rings.values())
        ):
            token = self._token = self._token_refs = None
        return token

    def stamp(self, token: SourceToken) -> None:
        """Record that the cell, as it is now, is what ``token``'s bytes decode to."""
        self._token = token
        self._token_refs = list(self.references)
        for rings in self._rings.values():
            rings._stamped = True

    def copy_content(self, source: "Cell") -> None:
        """Replace this cell's content with ``source``'s: copies of its ring
        buffers and the same (frozen) references. The token is not copied."""
        self._rings = {layer: rings.copy() for layer, rings in source._rings.items()}
        self.references = list(source.references)
        self._token = None

    # -- construction ------------------------------------------------------

    def add_polygon(self, layer: int, polygon: Polygon) -> None:
        """Attach a polygon to ``layer`` of this cell (local coordinates)."""
        self.ring_buffer(layer).append(polygon)

    def remove_polygon(self, layer: int, index: int) -> Polygon:
        """Detach polygon ``index`` of ``layer`` (as :meth:`polygons` numbers
        them; negative counts from the end) and return it."""
        rings = self._rings.get(layer)
        if rings is None:
            raise IndexError(f"cell {self.name!r} has no polygons on layer {layer}")
        self._token = None
        removed = rings.remove(index)
        if not len(rings):
            del self._rings[layer]
        return removed

    def add_reference(self, reference: CellReference) -> None:
        """Attach a child reference."""
        self._token = None
        self.references.append(reference)

    def ring_buffer(self, layer: int) -> RingBuffer:
        """The buffer of ``layer``, created empty if the cell has none yet.

        It is handed out to be written, so the cell's source token goes.
        """
        self._token = None
        rings = self._rings.get(layer)
        if rings is None:
            rings = self._rings[layer] = RingBuffer()
        return rings

    # -- queries ------------------------------------------------------------

    def local_layers(self) -> List[int]:
        """Layers with geometry defined directly in this cell (sorted)."""
        return sorted(self._rings)

    def rings(self, layer: int) -> Optional[RingBuffer]:
        """The packed local rings of ``layer`` (``None`` if the cell has none)."""
        return self._rings.get(layer)

    def polygons(self, layer: int) -> Tuple[Polygon, ...]:
        """Local polygons on ``layer``: an immutable view of the packed rings.

        Edit through :meth:`add_polygon` / :meth:`remove_polygon` and ask again.
        """
        rings = self._rings.get(layer)
        return rings.polygons() if rings is not None else ()

    def all_polygons(self) -> Iterator[Tuple[int, Polygon]]:
        """All local ``(layer, polygon)`` pairs."""
        for layer in sorted(self._rings):
            for polygon in self._rings[layer].polygons():
                yield layer, polygon

    @property
    def num_local_polygons(self) -> int:
        return sum(len(rings) for rings in self._rings.values())

    @property
    def is_leaf(self) -> bool:
        """True if this cell references no other cells."""
        return not self.references

    def __repr__(self) -> str:
        return (
            f"Cell({self.name!r}, {self.num_local_polygons} polygons, "
            f"{len(self.references)} references)"
        )

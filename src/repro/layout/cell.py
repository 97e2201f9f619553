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
from bisect import bisect_left, bisect_right
from operator import sub
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..geometry import EMPTY_RECT, Point, Polygon, Rect, Transform
from ..geometry.polygon import is_rectangle_ring
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


#: A buffer with fewer rings than this is scanned whole by a walk step,
#: which neither builds it an x-ordered index nor marks it walked
#: (:meth:`RingBuffer.mbrs_near`). At 64 rings a banded step already costs
#: about half a scan, and its index pays for itself within a few walks.
BANDED_MIN = 64

#: Rings per entry of a buffer's block bounds (:meth:`RingBuffer.block_bounds`):
#: two bytes a ring, and at most 15 rings read past the last entry.
BOUNDS_BLOCK = 16

#: An append or a head copy that moves more rings than this in or out of a
#: kept x-ordered index drops it (the next walk sorts afresh) rather than
#: inserting or deleting ring by ring, each a shift of the index arrays.
SPLICE_MAX = 64


#: :attr:`RingBuffer._walked`: a walk step scanned this large buffer
#: without an index; or a buffer it was head-copied from was walked, so
#: its tables are built on first ask ("due").
_WALKED, _DUE = 1, 2


class XOrder(NamedTuple):
    """A buffer's ``xlo``-ordered index (:meth:`RingBuffer.xorder`).

    ``keys`` / ``ids`` hold every ring, sorted on ``(xlo, ring)``;
    ``band`` is at least the widest ring's width. A ring whose MBR meets
    ``[wxlo, wxhi]`` in x then has its ``xlo`` in ``[wxlo - band, wxhi]``:
    one bisect pair. A wider band than needed keeps that exact, only
    looser, so a carried index keeps its band when its widest ring goes.
    """

    keys: array  # the xlo of each ring, ascending
    ids: array  # the ring each key belongs to
    band: int


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
    :meth:`polygons` is a cached *view*, and :meth:`rect_flags` a cached
    column; every mutation drops both, and neither is compared, copied nor
    pickled. Every mutation also clears ``_stamped``, which
    :meth:`Cell.stamp` sets: a cell's source token holds only while each of
    its buffers is still stamped.

    Two derived tables follow the rings across version splices instead:
    :meth:`block_bounds`, the running bounds every :data:`BOUNDS_BLOCK`
    rings (so the bounds of any prefix, a head copy's among them, read one
    entry and fewer than a block of rings: :meth:`bounds`), and
    :meth:`xorder` (so a walk step bisects a band per window,
    :meth:`mbrs_near`). A head copy (:meth:`extend` from ring 0 into an
    empty buffer) carries the source's, cut to the copied prefix;
    :meth:`append_ring` and :meth:`append_rectangles` extend kept tables;
    any other mutation drops them. They are not compared nor pickled.

    They are built only where they will be carried: in a buffer that is
    *due*, a head copy of a large buffer that a walk step scanned (or of
    one that was due itself). So a cold check and a one-shot recheck build
    nothing, a served chain builds them on its second version of a walked
    layer and carries them on, and a version whose splice ends in a tail
    copy (an edit mid-structure: every later version's too) builds none
    and scans, as it would without them.
    """

    __slots__ = (
        "coords", "offsets", "mbrs", "names", "_view", "_rects", "_stamped", "_bounds", "_order",
        "_walked",
    )  # fmt: skip

    def __init__(self) -> None:
        self.coords = array("q")
        self.offsets = array("q", (0,))
        self.mbrs = array("q")
        self.names: Dict[int, str] = {}
        self._view: Optional[Tuple[Polygon, ...]] = None
        self._rects: Optional[bytes] = None
        self._stamped = False
        self._bounds: Optional[array] = None
        self._order: Optional[XOrder] = None
        self._walked = 0

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getstate__(self):
        return self.coords, self.offsets, self.mbrs, self.names

    def __setstate__(self, state) -> None:
        self.coords, self.offsets, self.mbrs, self.names = state
        self._view = self._rects = self._bounds = self._order = None
        self._stamped = False
        self._walked = 0

    def copy(self) -> "RingBuffer":
        """A buffer with copies of this one's arrays, names and derived
        tables (no view)."""
        twin = RingBuffer()
        twin.extend(self)
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

    def rect_flags(self) -> bytes:
        """One byte per ring, in storage order: 1 where the ring is a
        rectangle (:func:`~repro.geometry.polygon.is_rectangle_ring` of its
        points), 0 elsewhere.

        Computed in one pass over :attr:`coords` on first use and kept until
        the next mutation. Two threads racing on a first use compute equal
        bytes, and either assignment leaves the same column.
        """
        flags = self._rects
        if flags is None:
            coords, offsets = self.coords, self.offsets
            flags = self._rects = bytes(
                b - a == 8 and is_rectangle_ring(list(zip(coords[a:b:2], coords[a + 1 : b : 2])))
                for a, b in zip(offsets, offsets[1:])
            )
        return flags

    # -- derived tables, carried across splices --------------------------------

    def block_bounds(self) -> array:
        """Entry ``j``, ``[4 * j:4 * j + 4]``: the MBR ``xlo, ylo, xhi, yhi``
        of rings ``0`` up to ``BOUNDS_BLOCK * (j + 1)``, one entry per
        complete block: the running minima and maxima of :attr:`mbrs`,
        sampled every :data:`BOUNDS_BLOCK` rings.

        Built when called and kept (lock-free, as :meth:`rect_flags`) while
        the buffer only grows at its end; :meth:`bounds` calls it only in a
        buffer that is due (see the class docstring).
        """
        blocks = self._bounds
        if blocks is None:
            blocks = array("q")
            _extend_blocks(blocks, self.mbrs)
            self._bounds = blocks
        return blocks

    def bounds(self) -> Rect:
        """The MBR of every ring (``EMPTY_RECT`` for none): the last kept
        block's entry joined with the rings after it (fewer than
        :data:`BOUNDS_BLOCK`), or one pass over :attr:`mbrs` in a buffer
        that keeps no block bounds and is not due (which builds nothing)."""
        blocks = self._bounds
        if blocks is None and self._walked == _DUE:
            blocks = self.block_bounds()
        blocks, table = blocks or (), self.mbrs
        start = len(blocks) * BOUNDS_BLOCK
        if start == len(table):
            return Rect._make(blocks[-4:]) if blocks else EMPTY_RECT
        return Rect(*_joined(table, start, len(table), blocks[-4:]))

    def xorder(self) -> XOrder:
        """The ``xlo``-ordered index of the rings (see :class:`XOrder`),
        its band the widest ring's width.

        Built when called and kept as :meth:`block_bounds` is;
        :meth:`mbrs_near` calls it only in a buffer that is due.
        """
        order = self._order
        if order is None:
            xlos = self.mbrs[0::4]
            order = self._order = XOrder(
                array("q", sorted(xlos)),
                array("q", sorted(range(len(xlos)), key=xlos.__getitem__)),  # stable
                max(map(sub, self.mbrs[2::4], xlos), default=0),
            )
        return order

    def mbrs_near(self, windows: Sequence[Sequence[int]]) -> Iterable[Tuple[int, Sequence[int]]]:
        """``(index, mbr)`` of rings in storage order, a superset of those
        whose MBR meets one of ``windows`` (closed ``xlo, ylo, xhi, yhi``):
        the caller still tests each.

        A buffer of :data:`BANDED_MIN` rings or more that keeps an index,
        or is due and builds it here, yields each window's band of its
        :meth:`xorder` index; any other buffer, or one where the bands pick
        most rings, yields every ring. A large buffer walked without an
        index is marked walked, so that its next version's head copy is due.
        """
        table = self.mbrs
        count = len(table) >> 2
        if count >= BANDED_MIN:
            order = self._order
            if order is None and self._walked == _DUE:
                order = self.xorder()
            if order is None:
                self._walked = _WALKED
            else:
                keys, ids, band = order
                picked: List[int] = []
                for wxlo, _, wxhi, _ in windows:
                    lo = bisect_left(keys, wxlo - band)
                    picked += ids[lo : bisect_right(keys, wxhi, lo)]
                if 2 * len(picked) <= count:
                    if len(windows) > 1:
                        picked = set(picked)  # a ring in two windows' bands
                    return ((i, table[4 * i : 4 * i + 4]) for i in sorted(picked))
        entries = iter(table)
        return enumerate(zip(entries, entries, entries, entries))

    def _prefix_order(self, stop: int) -> Optional[XOrder]:
        """A copy of the kept index cut to rings ``0`` up to ``stop`` (its
        band kept), or None (no index kept, or more than :data:`SPLICE_MAX`
        rings to take out of it)."""
        order = self._order
        if order is None or len(self) - stop > SPLICE_MAX:
            return None
        keys, ids, band = order
        keys, ids, table = keys[:], ids[:], self.mbrs
        for index in range(stop, len(self)):
            at = bisect_left(keys, table[4 * index])
            while ids[at] != index:  # ties on xlo are in ring order
                at += 1
            del keys[at], ids[at]
        return XOrder(keys, ids, band)

    def _appended(self, first: int) -> None:
        """Extend the kept tables by rings ``first`` on, just appended: the
        band widens to a wider ring."""
        if self._bounds is not None:
            _extend_blocks(self._bounds, self.mbrs)
        order = self._order
        if order is not None and len(self) - first > SPLICE_MAX:
            self._order = None
        elif order is not None:
            keys, ids, band = order
            table = self.mbrs
            for index in range(first, len(self)):
                xlo = table[4 * index]
                band = max(band, table[4 * index + 2] - xlo)
                at = bisect_right(keys, xlo)
                keys.insert(at, xlo)
                ids.insert(at, index)
            self._order = XOrder(keys, ids, band)

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
        self._view = self._rects = None
        self._stamped = False
        if self._bounds is not None or self._order is not None:  # not while a read fills it
            self._appended(len(self) - 1)

    def append_rectangles(self, mbrs: array) -> None:
        """Append one rectangle per MBR in ``mbrs`` (an ``array('q')`` laid out
        as :attr:`mbrs` is), each as the ring ``(xlo, ylo), (xlo, yhi),
        (xhi, yhi), (xhi, ylo)``: what the ``Polygon`` constructor stores for
        that ring. The caller vouches that ``xlo < xhi`` and ``ylo < yhi``.
        """
        count, first = len(mbrs) >> 2, len(self)
        rings = array("q", bytes(64 * count))
        for k, column in enumerate((0, 1, 0, 3, 2, 3, 2, 1)):
            rings[k::8] = mbrs[column::4]
        start = len(self.coords)
        self.coords.extend(rings)
        self.mbrs.extend(mbrs)
        self.offsets.fromlist(list(range(start + 8, start + 8 * count + 1, 8)))
        self._view = self._rects = None
        self._stamped = False
        self._appended(first)

    def extend(self, source: "RingBuffer", start: int = 0, stop: Optional[int] = None) -> None:
        """Append rings ``start`` up to ``stop`` (by default the last) of
        ``source``, names included: array slices, no ring by ring.

        Coordinates and MBRs are copied straight from ``source``'s memory,
        without a temporary slice: in a daemon that splices every upload, a
        transient copy of a large cell's arrays left the heap 0.5 MB larger.

        A head copy (from ring 0 into an empty buffer) carries the derived
        tables the source keeps, cut to the copied rings, and is due if the
        source was walked or due; it builds nothing. Any other range drops
        this buffer's tables, and it is no longer due.
        """
        stop = len(source) if stop is None else stop
        if start == 0 and not len(self):
            blocks = source._bounds
            self._bounds = None if blocks is None else blocks[: 4 * (stop // BOUNDS_BLOCK)]
            self._order = source._prefix_order(stop)
            self._walked = _DUE if source._walked else 0
        else:
            self._bounds = self._order = None
            self._walked = 0
        first, offsets = len(self), source.offsets
        lo, hi = offsets[start], offsets[stop]
        shift = len(self.coords) - lo
        moved = offsets[start + 1 : stop + 1]
        self.coords.frombytes(memoryview(source.coords).cast("B")[8 * lo : 8 * hi])
        self.offsets += array("q", [o + shift for o in moved]) if shift else moved
        self.mbrs.frombytes(memoryview(source.mbrs).cast("B")[32 * start : 32 * stop])
        self.names.update(
            (i - start + first, name) for i, name in source.names.items() if start <= i < stop
        )
        self._view = self._rects = None
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
        self._view = self._rects = self._bounds = self._order = None
        self._stamped = False
        self._walked = 0
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


def _joined(mbrs: array, start: int, stop: int, last: Sequence[int]) -> Tuple[int, ...]:
    """The MBR of the rings of ``mbrs[start:stop]`` (at least one), joined
    with ``last`` (another MBR, or empty for none)."""
    xlo, ylo = min(mbrs[start:stop:4]), min(mbrs[start + 1 : stop : 4])
    xhi, yhi = max(mbrs[start + 2 : stop : 4]), max(mbrs[start + 3 : stop : 4])
    if last:
        bxlo, bylo, bxhi, byhi = last
        return min(xlo, bxlo), min(ylo, bylo), max(xhi, bxhi), max(yhi, byhi)
    return xlo, ylo, xhi, yhi


def _extend_blocks(blocks: array, mbrs: array) -> None:
    """Append to ``blocks`` (see :meth:`RingBuffer.block_bounds`) the entry
    of every block of ``mbrs`` completed past those it holds."""
    step = 4 * BOUNDS_BLOCK
    for start in range(len(blocks) * BOUNDS_BLOCK, len(mbrs) - step + 1, step):
        blocks.extend(_joined(mbrs, start, start + step, blocks[-4:]))


#: Where a cell's content came from: the length and SHA-256 digest of the
#: stream bytes of its structure, from its STRNAME record through ENDSTR.
SourceToken = Tuple[int, bytes]


class Cell:
    """A named structure: per-layer packed rings plus child references.

    A cell read from a GDSII stream carries its :attr:`source_token` and
    :attr:`source`, so the next version of the layout can tell from bytes
    alone which of the structure's elements did not change. Every edit
    through the cell or through one of its buffers' mutators drops both,
    and so does any change to :attr:`references` (compared against the list
    as it was stamped).
    """

    __slots__ = ("name", "_rings", "references", "_token", "_token_refs", "_source")

    def __init__(self, name: str) -> None:
        self.name = name
        self._rings: Dict[int, RingBuffer] = {}
        self.references: List[CellReference] = []
        self._token: Optional[SourceToken] = None
        self._token_refs: Optional[List[CellReference]] = None
        self._source = None

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
            token = self._token = self._token_refs = self._source = None
        return token

    @property
    def source(self):
        """Where the bytes of :attr:`source_token` are, as the reader
        recorded it (a :class:`repro.layout.builder.StructureSource`), while
        the token holds; else ``None``."""
        return self._source if self.source_token is not None else None

    def stamp(self, token: SourceToken, source=None) -> None:
        """Record that the cell, as it is now, is what ``token``'s bytes
        decode to, and where those bytes are (``source``)."""
        self._token = token
        self._token_refs = list(self.references)
        self._source = source
        for rings in self._rings.values():
            rings._stamped = True

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

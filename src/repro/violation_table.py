"""Violations as a table: the columnar form of one rule's result.

A :class:`ViolationTable` holds one rule's violations as nine ``array('q')``
columns plus a waived mask, so a result goes from check procedure or kernel
hit to served byte without a :class:`~repro.checks.base.Violation` per
marker. The producers write rows (every procedure of :mod:`repro.checks`,
through :meth:`ViolationTable.from_rows`) or NumPy columns (the parallel
kernels, :meth:`ViolationTable.from_columns`) straight in; the canonical
sort, splice and filter masks, waiver digests, instance dedup and every
renderer (:mod:`repro.reporting`) read the columns. ``Violation`` objects
are built only when something asks for them
(:meth:`ViolationTable.violations`).

Stdlib-only on purpose, like :mod:`repro.reporting`: the HTTP client loads
a served payload into a table without importing NumPy or the geometry
stack.

Rows and canonical order
------------------------

A *row* is the 9-tuple ``(layer, kind, xlo, ylo, xhi, yhi, other, measured,
required)`` with ``kind`` a code from :data:`KINDS` and ``other`` the other
layer or -1 for none. :data:`KINDS` lists the kind names sorted, so code
order is name order and plain tuple order on rows is exactly
:func:`~repro.checks.base.violation_sort_key`. Row equality is
``Violation`` equality: ``waived`` is outside the row, in its own mask.

A table is canonical when built — deduplicated (the first occurrence of a
row keeps its waived flag, as ``set()`` over violations keeps the first)
and sorted once — and immutable after that. It pickles as its arrays.

Row JSON
--------

Because a table never changes, each row's served JSON text is built once,
on first use, and kept beside the columns (:meth:`ViolationTable.json_rows`):
the exact ``json.dumps(row_dict, sort_keys=True)`` of :meth:`~ViolationTable.dicts`,
split after ``"required": N, `` so a listing can put ``rule`` and
``severity`` between the halves. The memo lives and dies with its table: it
is not pickled, not stored, and not carried by :meth:`~ViolationTable.select`
or a splice, whose tables are new and encode their own rows when asked.
Its holder may drop it (:meth:`~ViolationTable.forget_json`) when the table
is unlikely to be served again.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import gt, sub
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ReproError

__all__ = [
    "COLUMNS",
    "KINDS",
    "KIND_CODES",
    "ViolationTable",
    "ViolationTableError",
]

#: Every ``ViolationKind`` value, sorted: a kind's code is its index here.
KINDS = (
    "area", "color", "corner", "enclosure", "overlap", "predicate", "shape",
    "spacing", "width",
)
KIND_CODES = {name: code for code, name in enumerate(KINDS)}

#: Column names, in row (and sort-key) order.
COLUMNS = ("layer", "kind", "xlo", "ylo", "xhi", "yhi", "other", "measured", "required")

Row = Tuple[int, int, int, int, int, int, int, int, int]


class ViolationTableError(ReproError, ValueError):
    """A row that cannot be a table's: a value outside int64, a non-integer,
    or an empty marker region."""


#: A row's JSON text up to its ``waived`` member; keys in sorted order.
_ROW_HEAD = (
    '{"kind": "%s", "layer": %d, "measured": %d, "other_layer": %s, '
    '"region": [%d, %d, %d, %d], "required": %d, '
)
#: A row's JSON text from its ``waived`` member on, by waived flag.
_ROW_TAILS = ('"waived": false}', '"waived": true}')


def _pack(
    columns: Sequence[Sequence[int]], waived: Optional[Iterable[int]], ordered: bool = True
) -> "ViolationTable":
    """Nine columns (rows already in their final order) into a table."""
    if any(map(gt, columns[2], columns[4])) or any(map(gt, columns[3], columns[5])):
        raise ViolationTableError("violation region must be non-empty")
    try:
        arrays = tuple(array("q", column) for column in columns)
    except (OverflowError, TypeError) as error:
        raise ViolationTableError(f"violation value has no int64 column: {error}") from None
    flags = bytes(len(arrays[0])) if waived is None else bytes(waived)
    return ViolationTable(arrays, flags, ordered)


def _pack_rows(rows: Sequence[Row], waived: Optional[Iterable[int]]) -> "ViolationTable":
    return _pack(list(zip(*rows)) if rows else [()] * len(COLUMNS), waived)


class ViolationTable:
    """One rule's violations as columns (see the module docstring)."""

    __slots__ = ("columns", "waived", "ordered", "_view", "_json", "_widest")

    def __init__(self, columns: Tuple[array, ...], waived: bytes, ordered: bool = True) -> None:
        #: The nine ``array('q')`` columns, named by :data:`COLUMNS`.
        self.columns = columns
        #: One byte per row: 1 where the violation is waived.
        self.waived = waived
        #: Rows are in canonical order (False only for a payload loaded as
        #: written, ``from_payload(canonical=False)``).
        self.ordered = ordered
        self._view: Optional[list] = None
        self._json: Optional[Tuple[List[str], List[str]]] = None
        self._widest: Optional[int] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Iterable[Row], waived: Optional[Iterable[int]] = None
    ) -> "ViolationTable":
        """The canonical table of some rows (with per-row waived flags)."""
        if waived is None:
            return _pack_rows(sorted(set(rows)), None)
        first: Dict[Row, int] = {}
        for row, flag in zip(rows, waived):
            first.setdefault(row, 1 if flag else 0)
        ordered = sorted(first)
        return _pack_rows(ordered, [first[row] for row in ordered])

    @classmethod
    def from_columns(
        cls,
        layer: int,
        kind: str,
        xlo: Sequence[int],
        ylo: Sequence[int],
        xhi: Sequence[int],
        yhi: Sequence[int],
        measured: Sequence[int],
        required: int,
        other: Optional[int] = None,
    ) -> "ViolationTable":
        """The canonical table of one producer's hits: coordinate and
        measurement columns (NumPy arrays or sequences) under one layer, kind,
        other layer and requirement."""
        columns = [c.tolist() if hasattr(c, "tolist") else c for c in (xlo, ylo, xhi, yhi, measured)]
        n = len(columns[0])
        rows = zip(
            repeat(layer, n),
            repeat(KIND_CODES[kind], n),
            *columns[:4],
            repeat(-1 if other is None else other, n),
            columns[4],
            repeat(required, n),
        )
        return cls.from_rows(rows)

    @classmethod
    def from_payload(
        cls, entries: Sequence[Dict[str, Any]], *, canonical: bool = True
    ) -> "ViolationTable":
        """A table of payload violation dicts. ``canonical=False`` keeps the
        entries' order and duplicates, so a payload renders as written."""
        regions = [entry["region"] for entry in entries]
        if any(len(region) != 4 for region in regions):
            raise ViolationTableError("violation region must be [xlo, ylo, xhi, yhi]")
        others = [entry.get("other_layer") for entry in entries]
        columns = [
            [entry["layer"] for entry in entries],
            [KIND_CODES[entry["kind"]] for entry in entries],
            *([region[i] for region in regions] for i in range(4)),
            [-1 if other is None else other for other in others],
            [entry["measured"] for entry in entries],
            [entry["required"] for entry in entries],
        ]
        flags = [1 if entry.get("waived") else 0 for entry in entries]
        if canonical:
            return cls.from_rows(zip(*columns), flags)
        return _pack(columns, flags, ordered=False)

    @classmethod
    def concat(cls, parts: Iterable["ViolationTable"]) -> "ViolationTable":
        """The canonical union of tables, in order (an earlier part's waived
        flag wins a duplicate)."""
        rows: List[Row] = []
        flags: List[int] = []
        for part in parts:
            rows += part.rows()
            flags += part.waived
        return cls.from_rows(rows, flags)

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.waived)

    def rows(self) -> List[Row]:
        return list(zip(*self.columns))

    @property
    def num_waived(self) -> int:
        return self.waived.count(1)

    def violations(self) -> list:
        """The rows as :class:`~repro.checks.base.Violation` objects, built
        on first read and kept (the list view ``CheckResult.violations``
        returns)."""
        if self._view is None:
            from .checks.base import Violation, ViolationKind
            from .geometry import Rect

            kinds = [ViolationKind(name) for name in KINDS]
            self._view = [
                Violation(
                    kinds[kind], layer, Rect(xlo, ylo, xhi, yhi), measured, required,
                    None if other < 0 else other, waived=flag == 1,
                )
                for (layer, kind, xlo, ylo, xhi, yhi, other, measured, required), flag
                in zip(self.rows(), self.waived)
            ]
        return self._view

    def __iter__(self):
        return iter(self.violations())

    def __getitem__(self, index):
        return self.violations()[index]

    def __eq__(self, other: object) -> bool:
        """Equal rows (waived flags aside, as for ``Violation``); against a
        plain sequence, equal as a list of violations."""
        if isinstance(other, ViolationTable):
            return self.columns == other.columns
        if isinstance(other, (list, tuple)):
            return self.violations() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ViolationTable({len(self)} rows, {self.num_waived} waived)"

    def __reduce__(self):
        if self.ordered:
            return (ViolationTable, (self.columns, self.waived))
        return (ViolationTable, (self.columns, self.waived, False))

    def dicts(self) -> List[Dict[str, Any]]:
        """The payload form: one plain-JSON dict per row."""
        return [
            {
                "kind": KINDS[kind],
                "layer": layer,
                "other_layer": None if other < 0 else other,
                "region": [xlo, ylo, xhi, yhi],
                "measured": measured,
                "required": required,
                "waived": flag == 1,
            }
            for (layer, kind, xlo, ylo, xhi, yhi, other, measured, required), flag
            in zip(self.rows(), self.waived)
        ]

    def json_rows(self) -> Tuple[List[str], List[str]]:
        """Each row's ``json.dumps(dict, sort_keys=True)`` text (the dict of
        :meth:`dicts`) as two lists: the heads, up to and including
        ``"required": N, ``, and the tails, ``"waived": …}``. Built on first
        call and kept (see "Row JSON" in the module docstring)."""
        memo = self._json  # read once: another thread may forget it meanwhile
        if memo is None:
            memo = self._json = self._encode()
        return memo

    def forget_json(self) -> None:
        """Drop the row-JSON memo; the next :meth:`json_rows` rebuilds it."""
        self._json = None

    def _encode(self) -> Tuple[List[str], List[str]]:
        heads = [
            _ROW_HEAD % (
                KINDS[kind], layer, measured, "null" if other < 0 else other,
                xlo, ylo, xhi, yhi, required,
            )
            for layer, kind, xlo, ylo, xhi, yhi, other, measured, required in zip(*self.columns)
        ]
        return heads, [_ROW_TAILS[flag] for flag in self.waived]

    # -- masks -----------------------------------------------------------------

    def select(self, keep: Iterable[bool]) -> "ViolationTable":
        """The rows where ``keep`` is true (a canonical table stays canonical)."""
        keep = list(keep)
        return ViolationTable(
            tuple(array("q", compress(column, keep)) for column in self.columns),
            bytes(compress(self.waived, keep)),
            self.ordered,
        )

    def _runs(self) -> Iterable[Tuple[int, int]]:
        """``(start, stop)`` of each canonical (layer, kind) run, whose rows
        sort by ``xlo``: one bisect per run boundary."""
        layers, kinds = self.columns[:2]
        start, n = 0, len(self)
        while start < n:
            layer_stop = bisect_right(layers, layers[start], start, n)
            while start < layer_stop:
                stop = bisect_right(kinds, kinds[start], start, layer_stop)
                yield start, stop
                start = stop

    def overlapping(self, boxes: Sequence[Sequence[int]]) -> List[bool]:
        """Per row: does the marker share a point with any closed box
        ``(xlo, ylo, xhi, yhi)``? (``Rect.overlaps`` against each box.)

        In a canonical table only the rows a bisect pair finds are visited:
        in each (layer, kind) run, per box, those whose ``xlo`` lies in
        ``[box.xlo - widest, box.xhi]``, ``widest`` the table's widest
        marker (computed on first use and kept), since no marker further
        left reaches the box. Rows as written are scanned whole."""
        out = [False] * len(self)
        boxes = [tuple(box) for box in boxes if box[0] <= box[2] and box[1] <= box[3]]
        if not boxes:
            return out
        _, _, xlos, ylos, xhis, yhis = self.columns[:6]
        ordered = self.ordered
        if ordered and self._widest is None:
            self._widest = max(map(sub, xhis, xlos), default=0)
        for start, stop in self._runs() if ordered else [(0, len(self))]:
            for bxlo, bylo, bxhi, byhi in boxes:
                lo, hi = start, stop
                if ordered:
                    lo = bisect_left(xlos, bxlo - self._widest, start, stop)
                    hi = bisect_right(xlos, bxhi, lo, stop)
                for i in range(lo, hi):
                    if (
                        xlos[i] <= bxhi and bxlo <= xhis[i]
                        and ylos[i] <= byhi and bylo <= yhis[i]
                    ):  # fmt: skip
                        out[i] = True
        return out

    def waive(self, mask: Iterable[bool]) -> "ViolationTable":
        """The same rows, with the rows where ``mask`` is true waived."""
        return ViolationTable(
            self.columns,
            bytes(1 if (flag or hit) else 0 for flag, hit in zip(self.waived, mask)),
            self.ordered,
        )

    def instance_groups(self) -> List[Tuple[int, int]]:
        """Hierarchical repeats as ``(exemplar row, count)`` pairs.

        Rows identical up to translation — kind, layers, marker extent,
        measurements and waived flag — form one group; the exemplar is the
        group's first row, so in canonical order it is the lowest-sorting.
        """
        groups: Dict[tuple, List[int]] = {}
        for index, (layer, kind, xlo, ylo, xhi, yhi, other, measured, required, flag) in enumerate(
            zip(*self.columns, self.waived)
        ):
            key = (kind, layer, other, xhi - xlo, yhi - ylo, measured, required, flag)
            entry = groups.get(key)
            if entry is None:
                groups[key] = [index, 1]
            else:
                entry[1] += 1
        return [(index, count) for index, count in groups.values()]

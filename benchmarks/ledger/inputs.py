"""Seeded inputs of the ledger and the oracle their outputs are held to.

One dirty design per seed, shared by all four workloads: a clean synthetic
design, violations planted by ``inject_violations(seed=...)``, and one
sub-minimum-width M1 sliver added to five standard-cell *definitions* so
that a thousand-odd hierarchical repeats flow through hit conversion, canonical
sort, instance dedup and render. Edit variants add one sub-minimum-width M2
wire each, alone in the scratch strip above everything else, so a variant's
expected report is the base report plus one row known by construction.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import struct
from typing import Counter, Dict, List, Optional, Sequence, Tuple

from repro.core import Engine, EngineOptions
from repro.gdsii import RecordType, pack_record, read_bytes, write_bytes
from repro.gdsii.records import make_record, xy_record
from repro.geometry import Polygon
from repro.hierarchy.tree import HierarchyTree
from repro.layout import gdsii_from_layout
from repro.layout.builder import layout_from_gdsii
from repro.workloads import (
    LIBRARY,
    InjectionPlan,
    asap7,
    build_design,
    inject_violations,
)

TOP = "top"

#: Edit wires sit on this grid, far (>= 2x the largest rule value, as
#: ``inject_violations`` isolates its patterns) from each other and from
#: the injected strip below them.
_EDIT_PITCH_X = 400
_EDIT_PITCH_Y = 1500
_EDIT_ROWS = 4
_EDIT_LENGTH = 400  # long enough that the wire trips width only, not area
_M2_WIDTH_RULE = asap7.rule_name("W", asap7.M2)
#: Definitions that get a sub-minimum-width M1 sliver (~1.1 k placements on
#: jpeg@2), skipping any the design does not place.
_SLIVER_CELLS = ("NAND2x1", "NOR2x1", "AND2x2", "AOI21x1", "MUX2x1")


@dataclasses.dataclass(frozen=True)
class Edit:
    """One single-wire edit: where the wire is and the CSV row it causes."""

    rect: Tuple[int, int, int, int]
    row: str


@dataclasses.dataclass(frozen=True)
class Query:
    """One ``GET violations`` filter."""

    severity: Optional[str] = None
    rules: Optional[Tuple[str, ...]] = None
    bbox: Optional[Tuple[int, int, int, int]] = None


@dataclasses.dataclass
class Inputs:
    """Everything a workload feeds the program, made from one seed."""

    seed: int
    base_gds: bytes
    edits: List[Edit]
    queries: List[Query]
    _splice_at: int
    #: The oracle's report of ``base_gds`` (see :func:`oracle_csv`), filled
    #: in by whoever pays for it; synthesis alone leaves it empty.
    base_csv: str = ""

    def edit_gds(self, index: int) -> bytes:
        """The base stream with edit ``index``'s wire added to the top cell."""
        x0, y0, x1, y1 = self.edits[index].rect
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        element = b"".join(
            pack_record(record)
            for record in (
                make_record(RecordType.BOUNDARY),
                make_record(RecordType.LAYER, [asap7.M2]),
                make_record(RecordType.DATATYPE, [0]),
                xy_record(corners),
                make_record(RecordType.ENDEL),
            )
        )
        at = self._splice_at
        return self.base_gds[:at] + element + self.base_gds[at:]


def _endstr_offset(data: bytes, cell: str) -> int:
    """Byte offset of the ENDSTR record closing structure ``cell``."""
    offset, inside = 0, False
    while offset + 4 <= len(data):
        length, rtype = struct.unpack_from(">HB", data, offset)
        if length < 4:
            break
        if rtype == RecordType.STRNAME:
            name = data[offset + 4 : offset + length].rstrip(b"\x00")
            inside = name.decode("ascii") == cell
        elif rtype == RecordType.ENDSTR and inside:
            return offset
        offset += length
    raise ValueError(f"structure {cell!r} not found in the stream")


def synthesize(
    seed: int, *, design: str, scale: int, injected: int, n_edits: int
) -> Inputs:
    """The seeded inputs; same arguments give byte-identical streams."""
    layout = build_design(design, scale)
    inject_violations(
        layout,
        InjectionPlan(
            spacing=injected, width=injected, area=injected, enclosure=injected
        ),
        seed=seed,
    )
    # Between the last finger and the cell edge, clear of rails, fingers and
    # the neighbour's first finger by more than the M1 spacing rule: exactly
    # one width violation per placement of the cell, nothing else. A
    # different width per definition, so instance dedup sees several groups.
    for index, name in enumerate(_SLIVER_CELLS):
        right = LIBRARY[name].width - 32
        layout.cell(name).add_polygon(
            asap7.M1,
            Polygon.from_rect_coords(right - 8 - index, 60, right, 190),
        )
    base_gds = write_bytes(gdsii_from_layout(layout))

    tree = HierarchyTree(layout)
    xhi = yhi = 0
    for layer in layout.layers():
        mbr = tree.top_mbr(layer)
        if not mbr.is_empty:
            xhi, yhi = max(xhi, mbr.xhi), max(yhi, mbr.yhi)

    rng = random.Random(f"ledger-{seed}")
    columns = max(xhi // _EDIT_PITCH_X, n_edits // _EDIT_ROWS + 1)
    slots = [(c, r) for c in range(columns) for r in range(_EDIT_ROWS)]
    width_rule = asap7.WIDTH_RULES[asap7.M2]
    edits = []
    for column, row in rng.sample(slots, n_edits):
        x = 100 + column * _EDIT_PITCH_X
        y = yhi + 1000 + row * _EDIT_PITCH_Y
        w = rng.randint(4, width_rule - 1)
        rect = (x, y, x + w, y + _EDIT_LENGTH)
        edits.append(
            Edit(
                rect,
                f"{_M2_WIDTH_RULE},width,{asap7.M2},,{x},{y},{x + w},"
                f"{y + _EDIT_LENGTH},{w},{width_rule},error,0,1",
            )
        )

    rule_names = [rule.name for rule in asap7.full_deck()]
    span_y = yhi + 1000 + _EDIT_ROWS * _EDIT_PITCH_Y
    queries = [Query(severity="error"), Query(severity="warning")]
    for _ in range(5):
        queries.append(Query(rules=tuple(rng.sample(rule_names, rng.randint(1, 2)))))
    for _ in range(5):
        x0, y0 = rng.randrange(xhi // 4), rng.randrange(span_y // 2)
        queries.append(
            Query(
                bbox=(
                    x0,
                    y0,
                    x0 + rng.randint(1000, xhi),
                    y0 + rng.randint(1000, span_y),
                )
            )
        )
    rng.shuffle(queries)
    return Inputs(seed, base_gds, edits, queries, _endstr_offset(base_gds, TOP))


def oracle_csv(gds: bytes) -> str:
    """What ``repro check --format csv --expand-instances`` must print.

    A cold in-process check in the default sequential mode with no cache:
    the reference every fast path of the repository is held to.
    """
    layout = layout_from_gdsii(read_bytes(gds))
    layout.set_top(TOP)
    with Engine(options=EngineOptions(mode="sequential", use_cache=False)) as engine:
        report = engine.check(layout, rules=asap7.full_deck())
    return report.to_csv(expand_instances=True) + "\n"


# -- rows: the multiset view of a CSV report ---------------------------------


def csv_rows(text: str) -> Counter[str]:
    """The marker rows of a CSV report as a multiset (header dropped)."""
    lines = text.splitlines()
    return collections.Counter(lines[1:])


def payload_rows(violations: Sequence[Dict]) -> Counter[str]:
    """``GET violations`` entries rendered as the CSV rows they stand for."""
    rows = []
    for v in violations:
        other = v.get("other_layer")
        xlo, ylo, xhi, yhi = v["region"]
        rows.append(
            f"{v['rule']},{v['kind']},{v['layer']},{'' if other is None else other},"
            f"{xlo},{ylo},{xhi},{yhi},{v['measured']},{v['required']},"
            f"{v['severity']},{1 if v.get('waived') else 0},1"
        )
    return collections.Counter(rows)


def filter_rows(rows: Counter[str], query: Query) -> Counter[str]:
    """The rows a query must return, worked out from the CSV text alone.

    Deliberately not ``repro.reporting.filter_violations_payload``: the
    served listing is checked against an independent reading of the filter
    (closed boxes, touching counts).
    """
    kept: Counter[str] = collections.Counter()
    for row, count in rows.items():
        cells = row.split(",")
        if query.severity is not None and cells[10] != query.severity:
            continue
        if query.rules is not None and cells[0] not in query.rules:
            continue
        if query.bbox is not None:
            xlo, ylo, xhi, yhi = (int(c) for c in cells[4:8])
            bx0, by0, bx1, by1 = query.bbox
            if not (bx0 <= xhi and xlo <= bx1 and by0 <= yhi and ylo <= by1):
                continue
        kept[row] = count
    return kept

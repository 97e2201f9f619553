"""Violation-lifecycle report logic shared by the core and the HTTP client.

Every output format renders here from one shape: a report's per-rule
entries, each a :class:`RuleRows` — the rule's name, severity, seconds and
its :class:`~repro.violation_table.ViolationTable`. A local
:class:`~repro.core.results.CheckReport` hands its entries over as they are
(:meth:`~repro.core.results.CheckReport.entries`); a *plain-dict* report
payload (what :meth:`~repro.core.results.CheckReport.to_json` emits and a
``repro serve`` daemon returns verbatim) is loaded into the same entries
first (:func:`payload_entries`). CSV rendering, human summaries, severity
filtering, waiver application and hierarchical instance dedup therefore
have exactly one implementation each, and a client post-processing a served
payload reproduces the local CLI's bytes by construction.

Stdlib-only on purpose: :mod:`repro.client` imports this module without
pulling numpy or the geometry stack.

Vocabulary
----------

*Severity* (``error``/``warning``) lives on the rule and flows into each
result entry. *Waived* is a per-violation flag: a waived violation stays in
the report (so spliced incremental reports remain byte-identical to cold
ones — see ``docs/algorithms.md`` §8h) but does not block the exit code.
*Blocking* violations are the unwaived error-severity ones; they alone make
a check fail.

Waiver records
--------------

A waiver is a JSON object naming a rule (or ``"*"``) plus an anchor:

``{"rule": name, "marker": "<sha256>"}``
    Geometry-anchored: the digest of the violating marker's content
    (:func:`marker_digest` — kind, layers, region, measurements). Survives
    any edit that does not change the violation itself.
``{"rule": name, "region": [xlo, ylo, xhi, yhi]}``
    Region-anchored: waives violations whose marker lies fully inside the
    box (boundary contact counts as inside, matching
    ``Rect.contains_rect``).

An optional ``"reason"`` field is carried through untouched.
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from operator import and_
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ReproError
from .violation_table import KINDS, ViolationTable

__all__ = [
    "SEVERITIES",
    "FilterError",
    "RuleRows",
    "apply_waivers_payload",
    "check_bbox",
    "compile_waivers",
    "csv_from_entries",
    "csv_from_payload",
    "csv_quote",
    "dedup_instances",
    "filter_entries",
    "filter_violations",
    "filter_violations_payload",
    "listing_dicts",
    "marker_digest",
    "payload_entries",
    "payload_totals",
    "row_digest",
    "summary_from_entries",
    "summary_from_payload",
    "table_digests",
    "totals",
    "waiver_mask",
]

#: Severity labels a rule may carry (KiCad-MCP's DRC vocabulary).
SEVERITIES = ("error", "warning")

CSV_HEADER = (
    "rule,kind,layer,other_layer,xlo,ylo,xhi,yhi,measured,required,"
    "severity,waived,instances"
)


class RuleRows(NamedTuple):
    """One rule's entry of a report, as every renderer reads it."""

    rule: str
    severity: str
    seconds: float
    table: ViolationTable


def payload_entries(payload: Dict[str, Any]) -> List[RuleRows]:
    """A report payload's per-rule entries, violations in payload order."""
    return [
        RuleRows(
            result["rule"],
            result.get("severity", "error"),
            result.get("seconds", 0.0),
            ViolationTable.from_payload(result["violations"], canonical=False),
        )
        for result in payload["results"]
    ]


# ---------------------------------------------------------------------------
# CSV (RFC 4180)
# ---------------------------------------------------------------------------


def csv_quote(field: str) -> str:
    """Quote one CSV field per RFC 4180 when it needs it.

    Rule names are the only free-form CSV column; a deck (or the planned
    deck DSL) may legally name a rule with commas or quotes, which would
    otherwise shear the column layout.
    """
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def dedup_instances(
    violations: Sequence[Dict[str, Any]],
) -> List[Tuple[Dict[str, Any], int]]:
    """Collapse hierarchical repeats to ``(exemplar, instance_count)`` pairs.

    The input must be in canonical violation order (reports always are);
    the exemplar of each group is its first — lowest-sorting — member, so
    the collapsed rows are deterministic across backends and sessions.
    Grouping is :meth:`ViolationTable.instance_groups`.
    """
    table = ViolationTable.from_payload(violations, canonical=False)
    return [(violations[index], count) for index, count in table.instance_groups()]


def csv_from_entries(entries: Iterable[RuleRows], *, expand_instances: bool = False) -> str:
    """The CSV marker dump of a report's entries.

    By default hierarchical repeats collapse to one exemplar row whose
    ``instances`` column carries the repeat count; ``expand_instances=True``
    emits every marker as its own row (``instances`` = 1). Both forms are
    deterministic, so equal reports produce equal CSV bytes either way.
    """
    lines = [CSV_HEADER]
    for entry in entries:
        prefix = csv_quote(entry.rule) + ","
        suffix = f",{entry.severity},"
        columns = (*entry.table.columns, entry.table.waived)
        if expand_instances:
            picks: Iterable[Tuple[Sequence[int], int]] = zip(zip(*columns), repeat(1))
        else:
            picks = (
                ([column[index] for column in columns], count)
                for index, count in entry.table.instance_groups()
            )
        for (layer, kind, xlo, ylo, xhi, yhi, other, measured, required, flag), count in picks:
            lines.append(
                f"{prefix}{KINDS[kind]},{layer},{'' if other < 0 else other},"
                f"{xlo},{ylo},{xhi},{yhi},{measured},{required}{suffix}{flag},{count}"
            )
    return "\n".join(lines)


def csv_from_payload(
    payload: Dict[str, Any], *, expand_instances: bool = False
) -> str:
    """The CSV marker dump of a report payload (:func:`csv_from_entries`)."""
    return csv_from_entries(payload_entries(payload), expand_instances=expand_instances)


# ---------------------------------------------------------------------------
# Totals and summaries
# ---------------------------------------------------------------------------


def totals(entries: Iterable[RuleRows]) -> Dict[str, Any]:
    """The summary counters of a report's entries."""
    total = waived = blocking = 0
    for entry in entries:
        count, held = len(entry.table), entry.table.num_waived
        total += count
        waived += held
        if entry.severity == "error":
            blocking += count - held
    return {
        "total_violations": total,
        "total_waived": waived,
        "blocking_violations": blocking,
        "passed": total == 0,
    }


def payload_totals(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Recompute the summary counters of a payload from its violations.

    Used after client-side waiver application so the re-dumped JSON matches
    a locally waived report byte for byte.
    """
    return totals(payload_entries(payload))


def summary_from_entries(layout: str, mode: str, entries: Sequence[RuleRows]) -> str:
    """Human summary of a report (the CLI's default format)."""
    counts = totals(entries)
    total_seconds = sum(entry.seconds for entry in entries)
    headline = (
        f"DRC report for {layout!r} ({mode} mode): "
        f"{counts['total_violations']} violations"
    )
    if counts["total_waived"] or counts["blocking_violations"] != counts[
        "total_violations"
    ]:
        headline += (
            f" ({counts['blocking_violations']} blocking, "
            f"{counts['total_waived']} waived)"
        )
    headline += f", {total_seconds * 1e3:.2f} ms"
    lines = [headline]
    for entry in entries:
        count = len(entry.table)
        waived = entry.table.num_waived
        distinct = len(entry.table.instance_groups())
        if count == 0:
            status = "PASS"
        else:
            status = f"{count} violations"
            if distinct < count:
                status += f", {distinct} distinct"
            if waived:
                status += f", {waived} waived"
        tag = " [warning]" if entry.severity == "warning" else ""
        lines.append(
            f"  {entry.rule}{tag}: {status} ({entry.seconds * 1e3:.2f} ms)"
        )
    return "\n".join(lines)


def summary_from_payload(payload: Dict[str, Any]) -> str:
    """Human summary of a report payload (:func:`summary_from_entries`)."""
    return summary_from_entries(payload["layout"], payload["mode"], payload_entries(payload))


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------


def row_digest(kind: str, layer: int, other: Optional[int], region: Sequence[int],
               measured: int, required: int) -> str:
    """Content digest of one violation marker (the waiver anchor).

    Hashes the fields that define the violation — kind, layers, marker
    region, measured/required — exactly as the report store's content keys
    hash geometry: value-based, format-salted, independent of report order,
    severity, or the waived flag. Two runs that produce the same violation
    produce the same digest, however much unrelated geometry changed.
    """
    xlo, ylo, xhi, yhi = region
    text = (
        f"marker:v1;kind={kind};layer={layer};"
        f"other={'' if other is None else other};"
        f"region={xlo},{ylo},{xhi},{yhi};"
        f"measured={measured};required={required}"
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def marker_digest(violation: Dict[str, Any]) -> str:
    """:func:`row_digest` of one payload violation dict."""
    return row_digest(
        violation["kind"], violation["layer"], violation.get("other_layer"),
        violation["region"], violation["measured"], violation["required"],
    )


def table_digests(table: ViolationTable) -> List[str]:
    """:func:`row_digest` of every row of a table."""
    return [
        row_digest(KINDS[kind], layer, None if other < 0 else other,
                   (xlo, ylo, xhi, yhi), measured, required)
        for layer, kind, xlo, ylo, xhi, yhi, other, measured, required in table.rows()
    ]


class WaiverFormatError(ValueError):
    """A waiver record that is neither marker- nor region-anchored."""


def compile_waivers(waivers: Sequence[Dict[str, Any]]) -> List[Tuple[str, Optional[str], Optional[tuple]]]:
    """Waiver records as ``(rule_target, digest, box)`` triples (one of
    digest and box is None); :class:`WaiverFormatError` on a malformed one."""
    compiled = []
    for waiver in waivers:
        target = waiver.get("rule", "*")
        marker = waiver.get("marker")
        region = waiver.get("region")
        if marker is not None:
            if not isinstance(marker, str):
                raise WaiverFormatError(
                    f"waiver marker must be a digest string: {waiver}"
                )
            compiled.append((target, marker, None))
        elif region is not None:
            if not isinstance(region, (list, tuple)) or len(region) != 4:
                raise WaiverFormatError(
                    f"waiver region must be [xlo, ylo, xhi, yhi]: {waiver}"
                )
            compiled.append((target, None, tuple(region)))
        else:
            raise WaiverFormatError(
                f"waiver needs a 'marker' digest or a 'region' box: {waiver}"
            )
    return compiled


def waiver_mask(rule: str, table: ViolationTable, compiled) -> List[bool]:
    """Per row of one rule's table: does a compiled waiver match it?

    A marker waiver matches on :func:`row_digest`; a region waiver when the
    marker lies fully inside the box (boundary allowed —
    ``Rect.contains_rect``).
    """
    mine = [(digest, box) for target, digest, box in compiled if target in ("*", rule)]
    mask = [False] * len(table)
    digests = {digest for digest, _ in mine if digest is not None}
    boxes = [box for digest, box in mine if digest is None]
    if digests:
        mask = [digest in digests for digest in table_digests(table)]
    if boxes:
        _, _, xlos, ylos, xhis, yhis = table.columns[:6]
        for index, (xlo, ylo, xhi, yhi) in enumerate(zip(xlos, ylos, xhis, yhis)):
            mask[index] = mask[index] or any(
                wxlo <= xlo and wylo <= ylo and xhi <= wxhi and yhi <= wyhi
                for wxlo, wylo, wxhi, wyhi in boxes
            )
    return mask


def apply_waivers_payload(
    payload: Dict[str, Any], waivers: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """A new payload with matching violations marked ``waived``.

    Violations are retained, never dropped: the marked payload has the same
    violation set (and therefore splices, diffs, and dedups identically to
    the unwaived one) — only the ``waived`` flags and the summary totals
    change. The input payload is untouched.
    """
    compiled = compile_waivers(waivers)
    out = dict(payload)
    out["results"] = []
    for result, entry in zip(payload["results"], payload_entries(payload)):
        marked = dict(result)
        table = entry.table.waive(waiver_mask(entry.rule, entry.table, compiled))
        marked["violations"] = table.dicts()
        out["results"].append(marked)
    out.update(payload_totals(out))
    return out


# ---------------------------------------------------------------------------
# Violation filtering (the /violations payload, locally reproducible)
# ---------------------------------------------------------------------------


class FilterError(ReproError, ValueError):
    """A listing filter that cannot apply: a malformed or empty bbox."""


def check_bbox(bbox: Sequence[int]) -> List[int]:
    """A listing's integer bbox filter ``[x1, y1, x2, y2]``, checked once for
    the daemon's ``/violations`` and the local ``repro violations``: four
    values spanning a non-empty box (``x1 <= x2`` and ``y1 <= y2``)."""
    if len(bbox) != 4:
        raise FilterError("bbox must be x1,y1,x2,y2")
    x1, y1, x2, y2 = bbox
    if x1 > x2 or y1 > y2:
        raise FilterError(f"bbox {list(bbox)} must be non-empty (x1 <= x2 and y1 <= y2)")
    return [x1, y1, x2, y2]


def filter_entries(
    entries: Iterable[RuleRows],
    *,
    severity: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    bbox: Optional[Sequence[int]] = None,
    include_waived: bool = True,
) -> List[Tuple[RuleRows, Optional[List[bool]]]]:
    """The entries a filtered listing keeps, each with its keep-mask over
    the table's rows (None: every row).

    Rules and severities drop whole entries; ``bbox`` (markers that
    *overlap* the box, touching counts — ``Rect.overlaps``) and
    ``include_waived`` are masks over each table.
    """
    wanted = set(rules) if rules else None
    kept: List[Tuple[RuleRows, Optional[List[bool]]]] = []
    for entry in entries:
        if severity is not None and entry.severity != severity:
            continue
        if wanted is not None and entry.rule not in wanted:
            continue
        mask = None if bbox is None else entry.table.overlapping([bbox])
        if not include_waived:
            unwaived = [flag == 0 for flag in entry.table.waived]
            mask = unwaived if mask is None else list(map(and_, mask, unwaived))
        kept.append((entry, mask))
    return kept


def filter_violations(
    entries: Iterable[RuleRows],
    *,
    severity: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    bbox: Optional[Sequence[int]] = None,
    include_waived: bool = True,
) -> Dict[str, Any]:
    """Flat violation listing filtered by severity / rule / bbox.

    The shape ``GET /sessions/<id>/violations`` serves (minus the session
    envelope), as dicts: the rows :func:`filter_entries` keeps, with dicts
    built only for them. The daemon writes the same JSON from each table's
    memoised row text instead (:meth:`repro.server.state.ServerState.violations_body`).
    """
    items = listing_dicts(
        filter_entries(
            entries, severity=severity, rules=rules, bbox=bbox, include_waived=include_waived
        )
    )
    return {"total": len(items), "violations": items}


def listing_dicts(kept: Iterable[Tuple[RuleRows, Optional[List[bool]]]]) -> List[Dict[str, Any]]:
    """The rows :func:`filter_entries` kept as listing dicts (a row's
    payload dict plus its rule and severity), built for those rows only."""
    items: List[Dict[str, Any]] = []
    for entry, mask in kept:
        table = entry.table if mask is None else entry.table.select(mask)
        for item in table.dicts():
            item["rule"] = entry.rule
            item["severity"] = entry.severity
            items.append(item)
    return items


def filter_violations_payload(
    payload: Dict[str, Any],
    *,
    severity: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    bbox: Optional[Sequence[int]] = None,
    include_waived: bool = True,
) -> Dict[str, Any]:
    """:func:`filter_violations` of a report payload or marker database."""
    return filter_violations(
        payload_entries(payload), severity=severity, rules=rules, bbox=bbox,
        include_waived=include_waived,
    )

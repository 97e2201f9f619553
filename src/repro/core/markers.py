"""Violation marker database: persist and reload check reports.

The interface layer's "result output" (paper §V-A): reports serialize to a
versioned JSON marker database — violations with rule names, kinds, layers,
regions, measurements, severities, waived flags, and per-rule stats — and
reload into the same :class:`~repro.violation_table.ViolationTable` rows,
so stored markers compare equal to freshly computed ones (waiver flows,
regression diffing via ``repro diff``).

What round-trips and what cannot
--------------------------------

Violations, rule structure (kind/layers/value/name/severity), per-rule
``seconds``, and the ``stats`` counters all round-trip exactly. Two things
cannot:

* ``ensures`` **predicates** — callables have no JSON form; reloaded rules
  carry an always-true stand-in (the stored violations are the record of
  what failed).
* **Phase profiles** — ``CheckResult.profile`` is a live timing object tied
  to the run that produced it; reloaded results have ``profile=None``.

Format history: version 1 (through PR 9) lacked ``severity``, ``stats``,
and ``waived``; version-1 files still load, with defaults (``error``,
``{}``, unwaived). New files are written as version 2.
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Union

from ..checks.base import Violation
from ..errors import ReproError
from ..geometry import Rect
from ..reporting import WaiverFormatError, compile_waivers, row_digest, table_digests, waiver_mask
from ..violation_table import ViolationTable
from .results import CheckReport, CheckResult
from .rules import Rule, RuleKind

#: Version written by :func:`save_markers` (and for waiver files).
FORMAT_VERSION = 2

#: Versions :func:`load_markers` accepts.
SUPPORTED_FORMATS = (1, 2)


class MarkerError(ReproError):
    """Malformed marker database."""


def report_to_dict(report: CheckReport) -> Dict:
    """JSON-ready representation of a report: its payload's per-rule entries
    under the marker format version."""
    payload = report.payload()
    return {
        "format": FORMAT_VERSION,
        "layout": payload["layout"],
        "mode": payload["mode"],
        "results": payload["results"],
    }


def save_markers(report: CheckReport, path: Union[str, "os.PathLike"]) -> None:
    """Write a report's marker database to ``path`` (JSON)."""
    with open(path, "w", encoding="ascii") as f:
        json.dump(report_to_dict(report), f, indent=1, sort_keys=True)


def load_markers(path: Union[str, "os.PathLike"]) -> CheckReport:
    """Reload a marker database written by :func:`save_markers`."""
    with open(path, "r", encoding="ascii") as f:
        data = json.load(f)
    return report_from_dict(data)


def report_from_dict(
    data: Dict, rules: Optional[Sequence[Rule]] = None
) -> CheckReport:
    """Rebuild a report from its JSON form; :class:`MarkerError` if malformed.

    Deserialises both stored forms of the per-rule entries: a marker
    database (rules are rebuilt from their stored structure) and, with
    ``rules``, a report-cache entry — a bare ``to_json`` payload, to which
    the live deck's :class:`Rule` objects are attached by name, in deck
    order; rule names that are not exactly the deck's are refused.
    """
    try:
        entries = list(data["results"])
        if rules is None:
            # Cache entries carry no format: their key's salt versions them.
            if data.get("format") not in SUPPORTED_FORMATS:
                raise MarkerError(f"unsupported marker format {data.get('format')!r}")
            deck = [_rebuild_rule(entry) for entry in entries]
        else:
            deck = list(rules)
            stored = {entry["rule"]: entry for entry in entries}
            if set(stored) != {rule.name for rule in deck}:
                raise MarkerError("stored rule names are not the deck's")
            entries = [stored[rule.name] for rule in deck]
        results = [
            CheckResult(
                rule=rule,
                violations=ViolationTable.from_payload(entry["violations"]),
                seconds=entry["seconds"],
                stats=dict(entry.get("stats") or {}),
            )
            for rule, entry in zip(deck, entries)
        ]
        return CheckReport(data["layout"], data["mode"], results)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise MarkerError(f"malformed report: {error!r}") from None


def _rebuild_rule(entry: Dict) -> Rule:
    kind = RuleKind(entry["kind"])
    severity = entry.get("severity", "error")
    if kind is RuleKind.ENSURES:
        # Callables cannot round-trip; stand in with an always-true predicate
        # (the stored violations are the record of what failed).
        return Rule(
            kind=kind, layer=entry["layer"], predicate=lambda p: True,
            severity=severity,
        ).named(entry["rule"])
    return Rule(
        kind=kind,
        layer=entry["layer"],
        value=entry["value"],
        other_layer=entry["other_layer"],
        severity=severity,
    ).named(entry["rule"])


def diff_markers(
    before: CheckReport, after: CheckReport
) -> Dict[str, Dict[str, int]]:
    """Per-rule regression diff: fixed / new / unchanged violation counts.

    ``new_waived`` counts how many of the new violations are waived in
    ``after`` — regressions a waiver already covers (e.g. geometry-anchored
    waivers of known-bad markers), which ``repro diff`` does not fail on.
    Waiver flags never affect set membership itself (they sit beside the
    rows, in each table's waived mask), so waiving an existing violation is
    "unchanged", not "fixed". The sets compared are each table's rows.
    """
    out: Dict[str, Dict[str, int]] = {}
    before_by_rule = {r.rule.name: r.table for r in before.results}
    after_by_rule = {r.rule.name: r.table for r in after.results}
    for name in sorted(set(before_by_rule) | set(after_by_rule)):
        old = set(before_by_rule[name].rows()) if name in before_by_rule else set()
        table = after_by_rule.get(name)
        flags = dict(zip(table.rows(), table.waived)) if table is not None else {}
        new = flags.keys()
        fresh = new - old
        out[name] = {
            "fixed": len(old - new),
            "new": len(fresh),
            "new_waived": sum(flags[row] for row in fresh),
            "unchanged": len(old & new),
        }
    return out


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------


def violation_digest(violation: Violation) -> str:
    """Content digest of one violation (the geometry anchor of a waiver).

    Delegates to :func:`repro.reporting.row_digest`, as the client-side
    :func:`~repro.reporting.marker_digest` of a served payload does, so the
    two digests match.
    """
    return row_digest(
        violation.kind.value, violation.layer, violation.other_layer,
        violation.region, violation.measured, violation.required,
    )


def apply_waivers(report: CheckReport, waivers: List[Dict]) -> CheckReport:
    """Mark a report's violations waived where waiver records match.

    A waiver names a rule (or ``"*"``) plus an anchor — a ``marker``
    content digest (:func:`violation_digest`) or a ``region`` box that must
    fully contain the marker (boundary contact counts). Matching violations
    are *retained* with ``waived=True``, never dropped: the waived report
    has the same violation set as the raw one, so incremental splices and
    regression diffs are oblivious to waiver state, and waived markers stay
    visible in every output format. Returns a new report; the input is
    untouched.
    """
    try:
        compiled = compile_waivers(waivers)
    except WaiverFormatError as error:
        raise MarkerError(str(error)) from None
    results = [
        CheckResult(
            rule=result.rule,
            violations=result.table.waive(
                waiver_mask(result.rule.name, result.table, compiled)
            ),
            seconds=result.seconds,
            profile=result.profile,
            stats=dict(result.stats),
        )
        for result in report.results
    ]
    return CheckReport(report.layout_name, report.mode, results)


def waivers_for(
    report: CheckReport,
    *,
    rules: Optional[Sequence[str]] = None,
    region: Optional[Rect] = None,
    reason: Optional[str] = None,
) -> List[Dict]:
    """Geometry-anchored waiver records for a report's current violations.

    Selects violations by rule name(s) and/or a region their marker must
    overlap, and emits one ``{"rule", "marker"}`` record per distinct
    marker digest — the persistent form: anchored to the violation's
    content, these waivers survive any edit that does not change the
    violation itself. Already-waived violations are skipped (they are
    covered by whatever waived them).
    """
    wanted = set(rules) if rules else None
    records: List[Dict] = []
    seen = set()
    for result in report.results:
        if wanted is not None and result.rule.name not in wanted:
            continue
        table = result.table
        near = table.overlapping([region]) if region is not None else repeat(True)
        for digest, flag, hit in zip(table_digests(table), table.waived, near):
            if flag or not hit:
                continue
            key = (result.rule.name, digest)
            if key in seen:
                continue
            seen.add(key)
            record: Dict = {"rule": result.rule.name, "marker": digest}
            if reason:
                record["reason"] = reason
            records.append(record)
    return records


def save_waivers(waivers: List[Dict], path: Union[str, "os.PathLike"]) -> None:
    """Persist a waiver list as JSON."""
    with open(path, "w", encoding="ascii") as f:
        json.dump({"format": FORMAT_VERSION, "waivers": waivers}, f, indent=1)


def load_waivers(path: Union[str, "os.PathLike"]) -> List[Dict]:
    """Reload a waiver list written by :func:`save_waivers`."""
    with open(path, "r", encoding="ascii") as f:
        data = json.load(f)
    if data.get("format") not in SUPPORTED_FORMATS or "waivers" not in data:
        raise MarkerError("unsupported waiver file")
    return data["waivers"]

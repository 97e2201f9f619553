"""The report path before violations became a table — dict-walking
procedures over ``Violation`` objects and payload dicts, kept here as the
reference ``tests/test_report_reference.py`` holds the columnar renderers
to, byte for byte.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.checks.base import Violation, sort_violations
from repro.reporting import CSV_HEADER, csv_quote
from repro.spatial.regions import RegionSet


def canonical(violations: Iterable[Violation]) -> List[Violation]:
    """What ``CheckResult.__post_init__`` did: dedup through a set (the
    first occurrence stays), then the canonical sort."""
    return sort_violations(set(violations))


def violation_to_json(violation: Violation) -> Dict[str, Any]:
    r = violation.region
    return {
        "kind": violation.kind.value,
        "layer": violation.layer,
        "other_layer": violation.other_layer,
        "region": [r.xlo, r.ylo, r.xhi, r.yhi],
        "measured": violation.measured,
        "required": violation.required,
        "waived": violation.waived,
    }


def payload(report) -> Dict[str, Any]:
    return {
        "layout": report.layout_name,
        "mode": report.mode,
        "total_violations": report.total_violations,
        "total_waived": report.total_waived,
        "blocking_violations": report.blocking_violations,
        "passed": report.passed,
        "results": [
            {
                "rule": result.rule.name,
                "kind": result.rule.kind.value,
                "layer": result.rule.layer,
                "other_layer": result.rule.other_layer,
                "value": result.rule.value,
                "severity": result.rule.severity,
                "seconds": result.seconds,
                "stats": {k: result.stats[k] for k in sorted(result.stats)},
                "violations": [violation_to_json(v) for v in result.violations],
            }
            for result in report.results
        ],
    }


def to_json(report, *, indent: Optional[int] = 2) -> str:
    return json.dumps(payload(report), indent=indent, sort_keys=True)


def report_payload(report, meta: Dict[str, Any]) -> Dict[str, Any]:
    """The served body with its ``to_json`` → ``json.loads`` round trip."""
    return {"report": json.loads(to_json(report, indent=None)), "meta": meta}


def _instance_key(violation: Dict[str, Any]) -> Tuple:
    xlo, ylo, xhi, yhi = violation["region"]
    other = violation.get("other_layer")
    return (
        violation["kind"],
        violation["layer"],
        -1 if other is None else other,
        xhi - xlo,
        yhi - ylo,
        violation["measured"],
        violation["required"],
        bool(violation.get("waived", False)),
    )


def dedup_instances(violations: Sequence[Dict[str, Any]]) -> List[Tuple[Dict[str, Any], int]]:
    groups: Dict[Tuple, List] = {}
    order: List[Tuple] = []
    for violation in violations:
        key = _instance_key(violation)
        entry = groups.get(key)
        if entry is None:
            groups[key] = [violation, 1]
            order.append(key)
        else:
            entry[1] += 1
    return [(groups[key][0], groups[key][1]) for key in order]


def csv_from_payload(data: Dict[str, Any], *, expand_instances: bool = False) -> str:
    lines = [CSV_HEADER]
    for result in data["results"]:
        rule = csv_quote(result["rule"])
        severity = result.get("severity", "error")
        if expand_instances:
            rows = [(v, 1) for v in result["violations"]]
        else:
            rows = dedup_instances(result["violations"])
        for v, count in rows:
            other = v.get("other_layer")
            xlo, ylo, xhi, yhi = v["region"]
            lines.append(
                f"{rule},{v['kind']},{v['layer']},"
                f"{'' if other is None else other},"
                f"{xlo},{ylo},{xhi},{yhi},{v['measured']},{v['required']},"
                f"{severity},{1 if v.get('waived') else 0},{count}"
            )
    return "\n".join(lines)


def payload_totals(data: Dict[str, Any]) -> Dict[str, Any]:
    total = waived = blocking = 0
    for result in data["results"]:
        severity = result.get("severity", "error")
        for v in result["violations"]:
            total += 1
            if v.get("waived"):
                waived += 1
            elif severity == "error":
                blocking += 1
    return {
        "total_violations": total,
        "total_waived": waived,
        "blocking_violations": blocking,
        "passed": total == 0,
    }


def summary_from_payload(data: Dict[str, Any]) -> str:
    totals = payload_totals(data)
    total_seconds = sum(result["seconds"] for result in data["results"])
    headline = (
        f"DRC report for {data['layout']!r} ({data['mode']} mode): "
        f"{totals['total_violations']} violations"
    )
    if totals["total_waived"] or totals["blocking_violations"] != totals["total_violations"]:
        headline += (
            f" ({totals['blocking_violations']} blocking, "
            f"{totals['total_waived']} waived)"
        )
    headline += f", {total_seconds * 1e3:.2f} ms"
    lines = [headline]
    for result in data["results"]:
        count = len(result["violations"])
        waived = sum(1 for v in result["violations"] if v.get("waived"))
        distinct = len(dedup_instances(result["violations"]))
        if count == 0:
            status = "PASS"
        else:
            status = f"{count} violations"
            if distinct < count:
                status += f", {distinct} distinct"
            if waived:
                status += f", {waived} waived"
        tag = " [warning]" if result.get("severity", "error") == "warning" else ""
        lines.append(f"  {result['rule']}{tag}: {status} ({result['seconds'] * 1e3:.2f} ms)")
    return "\n".join(lines)


def _boxes_overlap(a: Sequence[int], b: Sequence[int]) -> bool:
    axlo, aylo, axhi, ayhi = a
    bxlo, bylo, bxhi, byhi = b
    if axlo > axhi or aylo > ayhi or bxlo > bxhi or bylo > byhi:
        return False
    return axlo <= bxhi and bxlo <= axhi and aylo <= byhi and bylo <= ayhi


def filter_violations_payload(
    data: Dict[str, Any],
    *,
    severity: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    bbox: Optional[Sequence[int]] = None,
    include_waived: bool = True,
) -> Dict[str, Any]:
    wanted = set(rules) if rules else None
    items: List[Dict[str, Any]] = []
    for result in data["results"]:
        sev = result.get("severity", "error")
        if severity is not None and sev != severity:
            continue
        if wanted is not None and result["rule"] not in wanted:
            continue
        for violation in result["violations"]:
            if not include_waived and violation.get("waived"):
                continue
            if bbox is not None and not _boxes_overlap(bbox, violation["region"]):
                continue
            entry = dict(violation)
            entry.setdefault("waived", False)
            entry["rule"] = result["rule"]
            entry["severity"] = sev
            items.append(entry)
    return {"total": len(items), "violations": items}


def splice_violations(
    cached: Sequence[Violation], fresh: Sequence[Violation], regions: RegionSet
) -> List[Violation]:
    kept = [v for v in cached if not regions.overlaps(v.region)]
    return sort_violations(set(kept) | set(fresh))


def filter_to_regions(violations: Sequence[Violation], regions: RegionSet) -> List[Violation]:
    """The per-result body of the old ``filter_to_regions``."""
    return [v for v in violations if regions.overlaps(v.region)]

"""The columnar report path against the dict-walking one it replaced.

Random reports — duplicates with differing waived flags, waived rows and
``waive()``d tables, ``other_layer=None``, coordinates and measurements out
to the int64 extremes, rule names with commas, quotes, newlines and
non-ASCII characters, empty results and zero-rule reports — must render the
same bytes through the :class:`~repro.violation_table.ViolationTable`
renderers as through ``tests/reference_report.py``: JSON, the daemon's
encoded reply and listing bodies, CSV in both forms, summary, dedup and
filtered listings; and splice and region filter must keep the same
violations.
"""

import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.checks.base import Violation, ViolationKind
from repro.core.incremental import filter_to_regions
from repro.core.results import CheckReport, CheckResult, splice_violations
from repro.core.rules import Rule, RuleKind
from repro.geometry import Rect
from repro.reporting import (
    csv_from_payload,
    dedup_instances,
    filter_violations,
    filter_violations_payload,
    summary_from_payload,
)
from repro.reporting import filter_entries
from repro.server.state import encode_listing, encode_reply, report_payload
from repro.spatial.regions import RegionSet

from . import reference_report as ref
from .violation_rows import table_of

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Small values (so markers and boxes meet), and int64 values out to the extremes.
COORD = st.integers(-50, 50) | st.sampled_from([INT64_MIN, INT64_MAX]) | st.integers(INT64_MIN, INT64_MAX)
MEASURE = st.integers(-5, 40) | st.sampled_from([INT64_MIN, -1, INT64_MAX]) | st.integers(INT64_MIN, INT64_MAX)


@st.composite
def regions(draw):
    xlo, ylo = draw(COORD), draw(COORD)
    width, height = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    return Rect(xlo, ylo, min(xlo + width, INT64_MAX), min(ylo + height, INT64_MAX))


@st.composite
def violations(draw):
    return Violation(
        kind=draw(st.sampled_from(list(ViolationKind))),
        layer=draw(st.integers(0, 3)),
        region=draw(regions()),
        measured=draw(MEASURE),
        required=draw(MEASURE),
        other_layer=draw(st.none() | st.integers(0, 3)),
        waived=draw(st.booleans()),
    )


NAMES = st.text(
    alphabet=st.sampled_from(list('ab,"\'x é漢 \n')), min_size=1, max_size=6
)


@st.composite
def reports(draw):
    names = draw(st.lists(NAMES, max_size=4, unique=True))
    results = []
    for name in names:
        pool = draw(st.lists(violations(), max_size=6))
        # Repeats of the pool, some with the other waived flag: duplicates.
        picks = draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else []
        found = [v.waive() if draw(st.booleans()) else v for v in picks] + pool
        rule = Rule(kind=RuleKind.SPACING, layer=1, value=draw(st.integers(1, 9)))
        rule = rule.named(name).with_severity(draw(st.sampled_from(["error", "warning"])))
        stats = draw(st.dictionaries(st.sampled_from(["a", "b_s", "c"]), st.integers(0, 9) | st.floats(0, 1)))
        result = CheckResult(rule, table_of(found), draw(st.floats(0, 1)), stats=stats)
        if draw(st.booleans()):
            # A waive()d table: same columns, new waived mask, no row memo.
            mask = draw(st.lists(st.booleans(), min_size=len(result.table), max_size=len(result.table)))
            result = CheckResult(rule, result.table.waive(mask), result.seconds, stats=stats)
        results.append(result)
    return CheckReport(draw(NAMES), draw(st.sampled_from(["sequential", "parallel"])), results)


META = st.fixed_dictionaries(
    {"endpoint": st.sampled_from(["check", "recheck"]), "seconds": st.floats(0, 1), "session": NAMES},
    optional={"recheck": st.fixed_dictionaries({"disposition": st.dictionaries(NAMES, NAMES, max_size=2)})},
)


def flagged(violations):
    return [(v, v.waived) for v in violations]


SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(st.lists(violations(), max_size=15))
def test_canonical_form_matches_the_set_and_sort(found):
    rule = Rule(kind=RuleKind.SPACING, layer=1, value=3)
    result = CheckResult(rule, table_of(found), 0.0)
    assert flagged(result.violations) == flagged(ref.canonical(found))


@SETTINGS
@given(reports())
def test_every_output_is_byte_identical(report):
    old = ref.payload(report)
    assert report.payload() == old
    assert report.to_json() == ref.to_json(report)
    assert report.to_json(indent=None) == ref.to_json(report, indent=None)
    meta = {"endpoint": "check", "seconds": 0.25}
    assert json.dumps(report_payload(report, meta), sort_keys=True) == json.dumps(
        ref.report_payload(report, meta), sort_keys=True
    )
    for expand in (False, True):
        text = ref.csv_from_payload(old, expand_instances=expand)
        assert report.to_csv(expand_instances=expand) == text
        assert csv_from_payload(old, expand_instances=expand) == text
    assert report.summary() == ref.summary_from_payload(old)
    assert summary_from_payload(old) == ref.summary_from_payload(old)
    for result in old["results"]:
        assert dedup_instances(result["violations"]) == ref.dedup_instances(result["violations"])


@SETTINGS
@given(
    reports(),
    st.none() | st.sampled_from(["error", "warning"]),
    st.none() | st.lists(NAMES, max_size=2),
    st.none() | regions().map(tuple) | st.tuples(COORD, COORD, COORD, COORD),
    st.booleans(),
)
def test_filtered_listings_are_identical(report, severity, rules, bbox, include_waived):
    old = ref.payload(report)
    expected = json.dumps(
        ref.filter_violations_payload(
            old, severity=severity, rules=rules, bbox=bbox, include_waived=include_waived
        ),
        sort_keys=True,
    )
    kwargs = dict(severity=severity, rules=rules, bbox=bbox, include_waived=include_waived)
    assert json.dumps(filter_violations(report.entries(), **kwargs), sort_keys=True) == expected
    assert json.dumps(filter_violations_payload(old, **kwargs), sort_keys=True) == expected
    # A payload out of canonical order filters as written (no xlo bisect).
    backwards = {**old, "results": [{**r, "violations": r["violations"][::-1]} for r in old["results"]]}
    assert json.dumps(filter_violations_payload(backwards, **kwargs), sort_keys=True) == json.dumps(
        ref.filter_violations_payload(backwards, **kwargs), sort_keys=True
    )


@SETTINGS
@given(
    st.lists(violations(), max_size=15),
    st.lists(violations(), max_size=6),
    st.lists(regions(), min_size=1, max_size=3),
)
def test_splice_and_region_filter_keep_the_same_violations(cached, fresh, windows):
    region_set = RegionSet.of(windows)
    rule = Rule(kind=RuleKind.SPACING, layer=1, value=3)
    baseline = CheckResult(rule, table_of(cached), 0.0)
    spliced = splice_violations(baseline.table, table_of(fresh), region_set)
    expected = ref.splice_violations(baseline.violations, fresh, region_set)
    assert flagged(spliced.violations()) == flagged(expected)
    clipped = filter_to_regions(CheckReport("l", "sequential", [baseline]), region_set)
    assert flagged(clipped.results[0].violations) == flagged(
        ref.filter_to_regions(baseline.violations, region_set)
    )


def test_zero_violation_and_empty_reports():
    rule = Rule(kind=RuleKind.WIDTH, layer=1, value=3).named("W,\"é")
    for report in (
        CheckReport("empty", "sequential", []),
        CheckReport("clean", "parallel", [CheckResult(rule, table_of([]), 0.5)]),
    ):
        old = ref.payload(report)
        assert report.to_json() == ref.to_json(report)
        assert report.to_csv() == ref.csv_from_payload(old)
        assert report.summary() == ref.summary_from_payload(old)


def _served_bytes(report, meta):
    return json.dumps(ref.report_payload(report, meta), sort_keys=True).encode()


@SETTINGS
@given(reports(), META)
def test_encoded_reply_is_the_reference_bytes(report, meta):
    expected = _served_bytes(report, meta)
    assert encode_reply(report, meta) == expected
    # Again from the built row memos.
    assert encode_reply(report, meta) == expected
    # A waive()d copy of an encoded table encodes its own waived flags.
    waived = CheckReport(
        report.layout_name,
        report.mode,
        [CheckResult(r.rule, r.table.waive([True] * len(r.table)), r.seconds, stats=r.stats) for r in report.results],
    )
    assert encode_reply(waived, meta) == _served_bytes(waived, meta)


@SETTINGS
@given(
    reports(),
    st.none() | st.sampled_from(["error", "warning"]),
    st.none() | st.lists(NAMES, max_size=2),
    st.none() | regions().map(tuple) | st.tuples(COORD, COORD, COORD, COORD),
    st.booleans(),
    st.integers(0, 9),
)
def test_encoded_listing_is_the_reference_bytes(report, severity, rules, bbox, include_waived, version):
    envelope = {"session": "s\u00e9\"1", "layout": report.layout_name, "version": version}
    kwargs = dict(severity=severity, rules=rules, bbox=bbox, include_waived=include_waived)
    expected = json.dumps(
        {**envelope, **ref.filter_violations_payload(ref.payload(report), **kwargs)}, sort_keys=True
    ).encode()
    for _ in range(2):  # cold, then from the built row memos
        assert encode_listing(envelope, filter_entries(report.entries(), **kwargs)) == expected


def test_empty_and_zero_rule_reports_encode_as_the_reference():
    rule = Rule(kind=RuleKind.WIDTH, layer=1, value=3).named("W,\"\né")
    meta = {"endpoint": "check", "seconds": 0.5}
    envelope = {"session": "s", "layout": "l", "version": 0}
    for report in (
        CheckReport("empty", "sequential", []),
        CheckReport("clean", "parallel", [CheckResult(rule, table_of([]), 0.5)]),
    ):
        assert encode_reply(report, meta) == _served_bytes(report, meta)
        expected = {**envelope, **ref.filter_violations_payload(ref.payload(report))}
        assert encode_listing(envelope, filter_entries(report.entries())) == json.dumps(
            expected, sort_keys=True
        ).encode()

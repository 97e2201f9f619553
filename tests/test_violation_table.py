"""ViolationTable: storage, and the work bounds of the columnar out path.

The bounds run on the perf ledger's seed-7 jpeg@2 stream with a spy on
``Violation.__init__``: a parallel check builds no ``Violation`` until
``.violations`` is read, and a served recheck plus three listings builds no
more than the windowed recheck found fresh. A spy on the row-JSON memo's
builder bounds the encoding the same way: a served turn encodes only the
rows of the tables the recheck made new, a report-LRU check encodes none,
a superseded version keeps no text for the tables it does not share, and
the memo never reaches a pickle or a report-store entry.
"""

import json
import os
import pickle
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.checks.base import Violation, ViolationKind, violation_sort_key
from repro.core import Engine, EngineOptions
from repro.core.packstore import PackStore
from repro.core.reportcache import ReportCache
from repro.gdsii import read_layout_bytes
from repro.geometry import Rect
from repro.server import ServerState
from repro.server import state as server_state
from repro.violation_table import KINDS, ViolationTable, ViolationTableError
from repro.workloads import asap7

from .violation_rows import table_of, violation_row

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks", "ledger"))
import inputs as ledger_inputs  # noqa: E402


@pytest.fixture(scope="module")
def stream():
    return ledger_inputs.synthesize(7, design="jpeg", scale=2, injected=40, n_edits=48)


@pytest.fixture(scope="module")
def layout(stream):
    layout = read_layout_bytes(stream.base_gds)
    layout.set_top(ledger_inputs.TOP)
    return layout


@pytest.fixture
def built(monkeypatch):
    """Counts ``Violation`` constructions."""
    count = [0]
    init = Violation.__init__

    def spy(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Violation, "__init__", spy)
    return count


@pytest.fixture
def encoded(monkeypatch):
    """Counts the rows whose JSON text is built."""
    count = [0]
    encode = ViolationTable._encode

    def spy(self):
        count[0] += len(self)
        return encode(self)

    monkeypatch.setattr(ViolationTable, "_encode", spy)
    return count


def _check(layout, **options):
    with Engine(options=EngineOptions(use_cache=False, **options)) as engine:
        return engine.check(layout, rules=asap7.full_deck())


def test_kind_codes_sort_like_the_kind_names():
    assert KINDS == tuple(sorted(kind.value for kind in ViolationKind))


def test_rows_sort_like_violation_sort_key():
    found = [
        Violation(kind, layer, Rect(x, 0, x + 2, 3), 1, 5, other)
        for kind in (ViolationKind.WIDTH, ViolationKind.AREA, ViolationKind.ENCLOSURE)
        for layer in (2, 1)
        for other in (None, 0, 3)
        for x in (4, -1)
    ]
    table = table_of(reversed(found))
    assert table.violations() == sorted(found, key=violation_sort_key)
    assert [violation_row(v) for v in table] == table.rows()


def test_parallel_check_builds_no_violation_until_read(layout, built):
    report = _check(layout, mode="parallel")
    assert report.total_violations == 1273 and built[0] == 0
    assert report.to_csv() and report.payload() and built[0] == 0
    assert len(report.results[0].violations) == report.results[0].num_violations
    assert built[0] == report.results[0].num_violations


def test_served_turn_builds_only_the_fresh_violations(stream, built):
    with ServerState() as state:
        session, _ = state.create_session(data=stream.base_gds, top=ledger_inputs.TOP)
        state.check(session.sid)
        for k in range(2):
            built[0] = 0
            report, _ = state.recheck(session.sid, data=stream.edit_gds(k))
            for query in stream.queries[:3]:
                state.violations(
                    session.sid,
                    severity=query.severity,
                    rules=list(query.rules) if query.rules else None,
                    bbox=query.bbox,
                )
            fresh = sum(r.stats.get("recheck_fresh_violations", 0) for r in report.results)
            assert fresh >= 1 and built[0] <= fresh


def test_served_turn_encodes_only_the_windowed_tables(stream, encoded):
    with ServerState() as state:
        session, _ = state.create_session(data=stream.base_gds, top=ledger_inputs.TOP)
        previous, meta = state.check(session.sid)
        server_state.encode_reply(previous, meta)
        for k in range(2):
            encoded[0] = 0
            report, meta = state.recheck(session.sid, data=stream.edit_gds(k))
            # The superseded version keeps the text of the tables carried over only.
            carried = {id(r.table) for r in report.results}
            for result in previous.results:
                assert (result.table._json is not None) == (id(result.table) in carried)
            previous = report
            body = server_state.encode_reply(report, meta)
            for query in stream.queries[:3]:
                state.violations_body(
                    session.sid,
                    severity=query.severity,
                    rules=list(query.rules) if query.rules else None,
                    bbox=query.bbox,
                )
            disposition = meta["recheck"]["disposition"]
            windowed = sum(
                len(r.table) for r in report.results if disposition[r.rule.name] != "cached"
            )
            assert "cached" in disposition.values() and windowed < report.total_violations
            assert 0 < encoded[0] <= windowed
            assert body == json.dumps(
                server_state.report_payload(report, meta), sort_keys=True
            ).encode()
        encoded[0] = 0
        again, meta = state.check(session.sid)
        assert meta["source"] == "report-lru"
        server_state.encode_reply(again, meta)
        assert encoded[0] == 0


def test_the_row_memo_never_pickles_or_stores(layout, tmp_path):
    report = _check(layout, mode="parallel")
    pickles = [pickle.dumps(result.table) for result in report.results]
    stores = [ReportCache(PackStore(str(tmp_path / name))) for name in ("cold", "warm")]
    stores[0].save("k", report)
    server_state.encode_reply(report, {})
    assert all(result.table._json is not None for result in report.results)
    assert [pickle.dumps(result.table) for result in report.results] == pickles
    stores[1].save("k", report)
    entries = [Path(store.root, "k.json").read_bytes() for store in stores]
    assert entries[0] == entries[1]


def test_report_payload_never_decodes_json(layout, monkeypatch):
    report = _check(layout, mode="parallel")

    def refuse(*args, **kwargs):
        raise AssertionError("report_payload decoded JSON")

    monkeypatch.setattr(json, "loads", refuse)
    body = server_state.report_payload(report, {"source": "engine"})
    assert body["report"]["total_violations"] == 1273


def test_table_pickles_as_its_columns(layout):
    one = _check(layout, mode="parallel")
    for result in one.results:
        copy = pickle.loads(pickle.dumps(result.table))
        assert copy == result.table and copy.waived == result.table.waived


def test_values_outside_int64_raise_a_typed_error():
    row = (1, 0, 0, 0, 5, 5, -1, 3, 2**63)
    with pytest.raises(ViolationTableError):
        ViolationTable.from_rows([row])
    with pytest.raises(ViolationTableError):
        ViolationTable.from_rows([(1, 0, 0, 0, 5, 5, -1, 2.5, 4)])
    with pytest.raises(ViolationTableError):
        ViolationTable.from_rows([(1, 0, 9, 0, 5, 5, -1, 3, 4)])  # empty region
    assert isinstance(ViolationTableError("x"), ValueError)


def test_duplicates_keep_the_first_waived_flag():
    v = Violation(ViolationKind.SPACING, 1, Rect(0, 0, 2, 2), 1, 3)
    assert table_of([v.waive(), v]).num_waived == 1
    assert table_of([v, v.waive()]).num_waived == 0
    assert len(ViolationTable.concat([table_of([v]), table_of([v.waive()])])) == 1


def test_overlapping_bisects_only_canonical_runs():
    def entry(xlo, layer=1):
        return {"kind": "spacing", "layer": layer, "other_layer": None,
                "region": [xlo, 0, xlo + 2, 2], "measured": 1, "required": 3}

    entries = [entry(0, layer=0), entry(100), entry(50), entry(-1)]
    box = [0, 0, 6, 6]
    as_written = ViolationTable.from_payload(entries, canonical=False)
    assert not as_written.ordered
    assert as_written.overlapping([box]) == [True, False, False, True]
    canonical = ViolationTable.from_payload(entries)
    assert canonical.ordered and canonical.select([True] * 4).ordered
    assert canonical.overlapping([box]) == [True, True, False, False]
    copy = pickle.loads(pickle.dumps(as_written))
    assert not copy.ordered and copy.overlapping([box]) == as_written.overlapping([box])


def random_table_and_boxes(rng, canonical):
    """Up to 30 markers on three layers and every kind, a third of them
    wide, and up to four boxes (some empty) over the same small grid."""
    entries = []
    for _ in range(rng.randint(0, 30)):
        x, y = rng.randint(-60, 60), rng.randint(-60, 60)
        w = rng.randint(50, 200) if rng.random() < 0.3 else rng.randint(0, 4)
        entries.append(
            {"kind": rng.choice(KINDS), "layer": rng.randint(0, 2), "other_layer": None,
             "region": [x, y, x + w, y + rng.randint(0, 10)], "measured": 1, "required": 2}
        )  # fmt: skip
    boxes = []
    for _ in range(rng.randint(0, 4)):
        x, y = rng.randint(-60, 60), rng.randint(-60, 60)
        boxes.append([x, y, x + rng.randint(-2, 40), y + rng.randint(-2, 40)])
    return ViolationTable.from_payload(entries, canonical=canonical), boxes


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_overlapping_is_the_brute_force_test(seed, canonical):
    """Every row against every non-empty box, ``Rect.overlaps`` style, on
    canonical tables (bisected per run from ``box.xlo`` less the widest
    marker) and on tables as written (scanned)."""
    table, boxes = random_table_and_boxes(random.Random(seed), canonical)
    live = [Rect(*box) for box in boxes if box[0] <= box[2] and box[1] <= box[3]]
    expected = [
        any(Rect(xlo, ylo, xhi, yhi).overlaps(box) for box in live)
        for _, _, xlo, ylo, xhi, yhi, _, _, _ in table.rows()
    ]
    assert table.overlapping(boxes) == expected
    assert table.overlapping(boxes) == expected  # the kept widest marker

"""ViolationTable: storage, and the work bounds of the columnar out path.

The bounds run on the perf ledger's seed-7 jpeg@2 stream with a spy on
``Violation.__init__``: a parallel check builds no ``Violation`` until
``.violations`` is read, and a served recheck plus three listings builds no
more than the windowed recheck found fresh.
"""

import json
import os
import pickle
import sys

import pytest

from repro.checks.base import Violation, ViolationKind, violation_sort_key
from repro.core import Engine, EngineOptions
from repro.gdsii import read_layout_bytes
from repro.geometry import Rect
from repro.server import ServerState
from repro.server import state as server_state
from repro.violation_table import KINDS, ViolationTable, ViolationTableError, violation_row
from repro.workloads import asap7

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
    table = ViolationTable.from_violations(reversed(found))
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


def test_report_payload_never_decodes_json(layout, monkeypatch):
    report = _check(layout, mode="parallel")

    def refuse(*args, **kwargs):
        raise AssertionError("report_payload decoded JSON")

    monkeypatch.setattr(json, "loads", refuse)
    body = server_state.report_payload(report, {"source": "engine"})
    assert body["report"]["total_violations"] == 1273


def test_table_pickles_as_its_columns_and_jobs_two_matches_one(layout):
    one = _check(layout, mode="parallel")
    for result in one.results:
        copy = pickle.loads(pickle.dumps(result.table))
        assert copy == result.table and copy.waived == result.table.waived
    two = _check(layout, mode="multiproc", jobs=2)
    assert two.to_csv(expand_instances=True) == one.to_csv(expand_instances=True)


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
    assert ViolationTable.from_violations([v.waive(), v]).num_waived == 1
    assert ViolationTable.from_violations([v, v.waive()]).num_waived == 0
    assert len(ViolationTable.concat([[v], [v.waive()]])) == 1

"""The violation lifecycle: severity, waivers, dedup, and report diffing.

End-to-end coverage of the PR 10 lifecycle layer: per-rule severity flows
from :class:`Rule` through results, reports, exit codes, and the serve
daemon; waivers are geometry-anchored and mark-not-drop (so spliced
incremental reports stay byte-identical to cold ones); hierarchical
repeats collapse in CSV; and ``repro diff`` turns two marker databases
into a CI-gateable regression verdict.
"""

import csv as csv_module
import io
import json

import pytest

from repro.checks.base import Violation, ViolationKind
from repro.cli import main
from repro.core import Engine, EngineOptions
from repro.core.incremental import recheck
from repro.core.markers import (
    apply_waivers,
    load_markers,
    load_waivers,
    report_from_dict,
    report_to_dict,
    save_markers,
    save_waivers,
    violation_digest,
    waivers_for,
)
from repro.core.reportcache import deck_digest
from repro.core.results import CheckReport, CheckResult
from repro.core.rules import RuleError, layer
from repro.geometry import Polygon, Rect
from repro.layout import Layout, gdsii_from_layout
from repro.gdsii import write
from repro.reporting import (
    apply_waivers_payload,
    csv_quote,
    dedup_instances,
    filter_violations_payload,
    marker_digest,
    payload_totals,
)
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations

from .violation_rows import table_of


def dirty_layout(seed=4):
    layout = build_design("uart")
    inject_violations(
        layout, InjectionPlan(spacing=3, width=2), layer=asap7.M2, seed=seed
    )
    return layout


def lifecycle_deck():
    return [asap7.spacing_rule(asap7.M2), asap7.width_rule(asap7.M2)]


def dirty_report():
    return Engine(mode="sequential").check(dirty_layout(), rules=lifecycle_deck())


@pytest.fixture()
def dirty_gds(tmp_path):
    path = tmp_path / "dirty.gds"
    write(gdsii_from_layout(dirty_layout()), path)
    return str(path)


@pytest.fixture()
def dirty_bytes(dirty_gds):
    """The dirty layout's GDSII stream, as a client uploads it."""
    with open(dirty_gds, "rb") as fh:
        return fh.read()


@pytest.fixture()
def deck_file(tmp_path):
    """A deck file whose spacing rule is demoted to warning severity."""
    path = tmp_path / "deck.py"
    path.write_text(
        "from repro.workloads import asap7\n"
        "RULES = [\n"
        "    asap7.spacing_rule(asap7.M2).as_warning(),\n"
        "    asap7.width_rule(asap7.M2),\n"
        "]\n"
    )
    return str(path)


# ---------------------------------------------------------------------------
# Severity on the rule, through results and exit codes
# ---------------------------------------------------------------------------


class TestSeverity:
    def test_severity_is_validated(self):
        with pytest.raises(RuleError):
            layer(1).spacing().greater_than(8).with_severity("fatal")

    def test_as_warning_copies(self):
        rule = layer(1).spacing().greater_than(8).named("S")
        warn = rule.as_warning()
        assert rule.severity == "error"
        assert warn.severity == "warning"
        assert warn.name == "S" and warn.value == rule.value

    def test_warning_rules_never_block(self):
        report = Engine(mode="sequential").check(
            dirty_layout(), rules=[r.as_warning() for r in lifecycle_deck()]
        )
        assert report.total_violations > 0
        assert report.blocking_violations == 0
        assert report.ok and not report.passed

    def test_error_rules_block(self):
        report = dirty_report()
        assert report.blocking_violations == report.total_violations
        assert not report.ok

    def test_severity_changes_deck_digest(self):
        deck = lifecycle_deck()
        warn = [deck[0].as_warning(), deck[1]]
        assert deck_digest(deck) != deck_digest(warn)

    def test_severity_in_payload_and_summary(self):
        report = Engine(mode="sequential").check(
            dirty_layout(), rules=[lifecycle_deck()[0].as_warning()]
        )
        payload = report.payload()
        assert payload["results"][0]["severity"] == "warning"
        assert payload["blocking_violations"] == 0
        assert "[warning]" in report.summary()
        assert "0 blocking" in report.summary()

    def test_cli_exit_zero_on_warning_only_violations(self, dirty_gds, deck_file, tmp_path, capsys):
        width_only = tmp_path / "warn_all.py"
        width_only.write_text(
            "from repro.workloads import asap7\n"
            "RULES = [asap7.spacing_rule(asap7.M2).as_warning(),\n"
            "         asap7.width_rule(asap7.M2).as_warning()]\n"
        )
        code = main(["check", dirty_gds, "--top", "top", "--deck", str(width_only)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[warning]" in out

    def test_cli_exit_one_on_error_violations(self, dirty_gds, deck_file):
        code = main(["check", dirty_gds, "--top", "top", "--deck", deck_file])
        assert code == 1  # the width rule is still error-severity


# ---------------------------------------------------------------------------
# CSV: RFC 4180 quoting and hierarchical instance dedup
# ---------------------------------------------------------------------------


class TestCsv:
    def test_quote_only_when_needed(self):
        assert csv_quote("M2.S.1") == "M2.S.1"
        assert csv_quote('sp,min "drawn"') == '"sp,min ""drawn"""'

    def test_hostile_rule_name_round_trips(self):
        name = 'spacing, M2 "drawn" layer'
        rule = layer(1).spacing().greater_than(8).named(name)
        layout = Layout("q")
        top = layout.new_cell("top")
        top.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 100))
        top.add_polygon(1, Polygon.from_rect_coords(15, 0, 25, 100))
        layout.set_top("top")
        report = Engine(mode="sequential").check(layout, rules=[rule])
        assert report.total_violations == 1
        text = report.to_csv()
        rows = list(csv_module.reader(io.StringIO(text)))
        assert rows[1][0] == name  # the csv module recovers the exact name
        assert len(rows[1]) == len(rows[0])  # no sheared columns

    def test_instance_dedup_collapses_translated_repeats(self):
        layout = Layout("arr")
        pair = layout.new_cell("pair")
        pair.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 100))
        pair.add_polygon(1, Polygon.from_rect_coords(16, 0, 26, 100))
        top = layout.new_cell("top")
        from repro.geometry import Transform
        from repro.layout import CellReference

        for i in range(4):
            top.add_reference(CellReference("pair", Transform(dx=i * 5000)))
        layout.set_top("top")
        report = Engine(mode="sequential").check(
            layout, rules=[layer(1).spacing().greater_than(8)]
        )
        assert report.total_violations == 4
        collapsed = report.to_csv().splitlines()
        assert len(collapsed) == 1 + 1
        assert collapsed[1].endswith(",4")  # instances column
        expanded = report.to_csv(expand_instances=True).splitlines()
        assert len(expanded) == 1 + 4
        assert all(line.endswith(",1") for line in expanded[1:])
        # The summary reports the distinct count next to the raw one.
        assert "4 violations, 1 distinct" in report.summary()

    def test_waived_and_unwaived_do_not_collapse_together(self):
        v = {
            "kind": "spacing", "layer": 1, "other_layer": None,
            "region": [0, 0, 5, 100], "measured": 5, "required": 8,
        }
        shifted = dict(v, region=[100, 0, 105, 100])
        waived = dict(shifted, waived=True)
        assert len(dedup_instances([v, shifted])) == 1
        assert len(dedup_instances([v, waived])) == 2


# ---------------------------------------------------------------------------
# Marker database v2: severity / stats / waived round-trip
# ---------------------------------------------------------------------------


class TestMarkerFormat:
    def test_v2_round_trips_severity_stats_waived(self, tmp_path):
        report = Engine(mode="sequential").check(
            dirty_layout(), rules=[lifecycle_deck()[0].as_warning()]
        )
        report = apply_waivers(
            report,
            [{"rule": "*", "marker": violation_digest(report.results[0].violations[0])}],
        )
        path = tmp_path / "m.json"
        save_markers(report, path)
        loaded = load_markers(path)
        assert loaded.results[0].rule.severity == "warning"
        assert loaded.results[0].stats == report.results[0].stats
        assert loaded.results[0].num_waived == 1
        assert loaded.results[0].violations[0].waived
        # What cannot round-trip is documented: phase profiles drop.
        assert loaded.results[0].profile is None

    def test_v1_databases_still_load_with_defaults(self):
        data = report_to_dict(dirty_report())
        data["format"] = 1
        for entry in data["results"]:
            del entry["severity"], entry["stats"]
            for v in entry["violations"]:
                v.pop("waived", None)
        loaded = report_from_dict(data)
        assert all(r.rule.severity == "error" for r in loaded.results)
        assert all(r.stats == {} for r in loaded.results)
        assert all(not v.waived for r in loaded.results for v in r.violations)


# ---------------------------------------------------------------------------
# Waivers: geometry anchoring and edge cases
# ---------------------------------------------------------------------------


class TestWaiverEdgeCases:
    def test_region_boundary_marker_is_waived(self):
        report = dirty_report()
        target = report.result("M2.S.1").violations[0]
        r = target.region
        # The waiver box IS the marker box: boundary contact counts.
        waived = apply_waivers(
            report, [{"rule": "M2.S.1", "region": [r.xlo, r.ylo, r.xhi, r.yhi]}]
        )
        assert any(
            v.waived and v.region == r
            for v in waived.result("M2.S.1").violations
        )

    def test_wildcard_marker_waiver(self):
        report = dirty_report()
        target = report.result("M2.W.1").violations[0]
        waived = apply_waivers(
            report, [{"rule": "*", "marker": violation_digest(target)}]
        )
        assert waived.total_waived == 1
        assert waived.result("M2.W.1").num_waived == 1
        assert waived.result("M2.S.1").num_waived == 0

    def test_empty_waiver_file_is_a_no_op(self, tmp_path):
        path = tmp_path / "w.json"
        save_waivers([], path)
        assert load_waivers(path) == []
        report = dirty_report()
        waived = apply_waivers(report, [])
        assert waived.total_waived == 0
        assert waived.to_json() == report.to_json()

    def test_marker_waiver_survives_unrelated_edit(self):
        """The geometry anchor: same violation, different layout version."""
        deck = lifecycle_deck()
        before = Engine(mode="sequential").check(dirty_layout(), rules=deck)
        edited = dirty_layout()
        edited.top_cell().add_polygon(
            19, Polygon.from_rect_coords(40000, 40000, 40400, 40900)
        )
        after = Engine(mode="sequential").check(edited, rules=deck)
        target = before.result("M2.S.1").violations[0]
        waivers = [{"rule": "M2.S.1", "marker": violation_digest(target)}]
        waived_after = apply_waivers(after, waivers)
        assert waived_after.result("M2.S.1").num_waived == 1

    def test_waivers_for_emits_deduped_marker_records(self):
        report = dirty_report()
        records = waivers_for(report, rules=["M2.S.1"], reason="known bad")
        assert records
        assert all(r["rule"] == "M2.S.1" for r in records)
        assert all(r["reason"] == "known bad" for r in records)
        assert len({r["marker"] for r in records}) == len(records)
        # Applying the generated waivers waives exactly that rule's set.
        waived = apply_waivers(report, records)
        assert waived.result("M2.S.1").num_blocking == 0
        assert waived.result("M2.W.1").num_waived == 0

    def test_waivers_after_splice_match_cold(self):
        """Spliced-then-waived equals cold-then-waived, byte for byte."""
        deck = [lifecycle_deck()[0].as_warning(), lifecycle_deck()[1]]
        old = build_design("uart")
        new = dirty_layout(seed=9)
        baseline = Engine(mode="sequential").check(old, rules=deck)
        outcome = recheck(
            old, new, rules=deck, options=EngineOptions(), cached=baseline
        )
        cold = Engine(mode="sequential").check(new, rules=deck)
        waivers = waivers_for(cold, rules=["M2.W.1"])
        spliced_waived = apply_waivers(outcome.report, waivers)
        cold_waived = apply_waivers(cold, waivers)
        assert spliced_waived.total_waived == cold_waived.total_waived > 0
        a, b = spliced_waived.payload(), cold_waived.payload()
        # The mode label ("recheck" vs "sequential") and the measured
        # timings/counters are honest run metadata; everything else —
        # violations, waived flags, severities, totals — must match.
        a["mode"] = b["mode"] = "x"
        for entry in (*a["results"], *b["results"]):
            entry["seconds"] = 0.0
            entry["stats"] = {}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_payload_waiver_application_matches_report_path(self):
        report = dirty_report()
        target = report.result("M2.S.1").violations[0]
        waivers = [{"rule": "M2.S.1", "marker": violation_digest(target)}]
        via_report = apply_waivers(report, waivers).payload()
        via_payload = apply_waivers_payload(report.payload(), waivers)
        assert json.dumps(via_report, sort_keys=True) == json.dumps(
            via_payload, sort_keys=True
        )
        assert payload_totals(via_payload)["total_waived"] == 1

    def test_waived_flag_outside_violation_identity(self):
        v = Violation(
            kind=ViolationKind.SPACING, layer=1,
            region=Rect(0, 0, 5, 100), measured=5, required=8,
        )
        assert v.waive() == v
        assert hash(v.waive()) == hash(v)
        assert marker_digest(
            {"kind": "spacing", "layer": 1, "other_layer": None,
             "region": [0, 0, 5, 100], "measured": 5, "required": 8,
             "waived": True}
        ) == violation_digest(v)


# ---------------------------------------------------------------------------
# repro diff / waive / violations
# ---------------------------------------------------------------------------


def _single_rule_report(violations, name="R", severity="error"):
    rule = layer(1).spacing().greater_than(8).named(name).with_severity(severity)
    return CheckReport(
        "synthetic", "sequential", [CheckResult(rule, table_of(violations), 0.0)]
    )


def _mk_violation(x, waived=False):
    v = Violation(
        kind=ViolationKind.SPACING, layer=1,
        region=Rect(x, 0, x + 5, 100), measured=5, required=8,
    )
    return v.waive() if waived else v


class TestDiffCommand:
    def _write(self, tmp_path, name, violations):
        path = tmp_path / name
        save_markers(_single_rule_report(violations), path)
        return str(path)

    def test_exit_zero_when_no_new_violations(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", [_mk_violation(0), _mk_violation(50)])
        new = self._write(tmp_path, "new.json", [_mk_violation(0)])
        code = main(["diff", old, new])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 fixed" in out and "0 new" in out and "no regressions" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", [_mk_violation(0)])
        new = self._write(tmp_path, "new.json", [_mk_violation(0), _mk_violation(50)])
        code = main(["diff", old, new])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION: 1 new unwaived violation(s)" in out

    def test_waived_new_violations_do_not_fail(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", [_mk_violation(0)])
        new = self._write(
            tmp_path, "new.json", [_mk_violation(0), _mk_violation(50, waived=True)]
        )
        code = main(["diff", old, new])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 of the new waived" in out

    def test_json_format(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", [_mk_violation(0)])
        new = self._write(tmp_path, "new.json", [_mk_violation(0), _mk_violation(50)])
        code = main(["diff", old, new, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["rules"]["R"] == {
            "fixed": 0, "new": 1, "new_waived": 0, "unchanged": 1
        }
        assert payload["regressions"] == 1

    def test_bad_database_exits_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            main(["diff", str(bad), str(bad)])


class TestWaiveCommand:
    def test_generate_then_apply(self, dirty_gds, tmp_path, capsys):
        markers = tmp_path / "markers.json"
        main(
            ["check", dirty_gds, "--top", "top", "--output", str(markers),
             "--format", "json"]
        )
        capsys.readouterr()
        waivers = tmp_path / "waivers.json"
        code = main(
            ["waive", str(markers), "-o", str(waivers), "--rule", "M2.S.1",
             "--reason", "legacy block"]
        )
        assert code == 0
        records = load_waivers(waivers)
        assert records and all("marker" in r for r in records)
        # A fully waived check of the same layout exits clean on that rule.
        code = main(
            ["check", dirty_gds, "--top", "top", "--waivers", str(waivers)]
        )
        out = capsys.readouterr().out
        assert "waived" in out
        assert code == 1  # the width rule still blocks


class TestViolationsCommand:
    def test_local_filtering_matches_served(self, dirty_gds, dirty_bytes, tmp_path, capsys):
        from repro.server import ServerState

        markers = tmp_path / "markers.json"
        main(
            ["check", dirty_gds, "--top", "top", "--output", str(markers),
             "--format", "json"]
        )
        capsys.readouterr()
        code = main(["violations", str(markers), "--rule", "M2.S.1"])
        local = json.loads(capsys.readouterr().out)
        assert code == 0
        with ServerState() as state:
            session, _ = state.create_session(data=dirty_bytes, top="top")
            served = state.violations(session.sid, rules=["M2.S.1"])
        assert json.dumps(local, sort_keys=True) == json.dumps(
            {"total": served["total"], "violations": served["violations"]},
            sort_keys=True,
        )

    def test_inverted_bbox_is_rejected_as_the_daemon_rejects_it(self, dirty_bytes, tmp_path, capsys):
        from repro.server import BadRequestError, ServerState

        markers = tmp_path / "m.json"
        save_markers(_single_rule_report([_mk_violation(0)]), markers)
        with pytest.raises(SystemExit) as excinfo:
            main(["violations", str(markers), "--bbox", "500", "500", "0", "0"])
        assert excinfo.value.code == 2
        local = capsys.readouterr().err.strip()
        with ServerState() as state:
            session, _ = state.create_session(data=dirty_bytes, top="top")
            with pytest.raises(BadRequestError) as served:
                state.violations(session.sid, bbox=[500, 500, 0, 0])
        assert local == f"repro: error: {served.value}"
        assert "must be non-empty" in local

    def test_unknown_rule_rejected(self, tmp_path):
        markers = tmp_path / "m.json"
        save_markers(_single_rule_report([_mk_violation(0)]), markers)
        with pytest.raises(SystemExit):
            main(["violations", str(markers), "--rule", "nope"])

    def test_no_waived_drops_waived_rows(self, tmp_path, capsys):
        markers = tmp_path / "m.json"
        save_markers(
            _single_rule_report([_mk_violation(0), _mk_violation(50, waived=True)]),
            markers,
        )
        main(["violations", str(markers)])
        assert json.loads(capsys.readouterr().out)["total"] == 2
        main(["violations", str(markers), "--no-waived"])
        assert json.loads(capsys.readouterr().out)["total"] == 1


# ---------------------------------------------------------------------------
# Served severity and client-side waivers
# ---------------------------------------------------------------------------


class TestServedLifecycle:
    def test_session_severity_overrides_live_on_rules(self, dirty_bytes):
        from repro.server import ServerState

        with ServerState() as state:
            session, _ = state.create_session(
                data=dirty_bytes, top="top",
                severities={"M2.S.1": "warning"},
            )
            by_name = {r.name: r.severity for r in session.rules}
            assert by_name["M2.S.1"] == "warning"
            assert session.info()["severities"]["M2.S.1"] == "warning"
            # Different severities → different content address.
            plain, created = state.create_session(data=dirty_bytes, top="top")
            assert created and plain.sid != session.sid

    def test_unknown_severity_rule_rejected(self, dirty_bytes):
        from repro.server import ServerState
        from repro.server.state import BadRequestError

        with ServerState() as state:
            with pytest.raises(BadRequestError):
                state.create_session(
                    data=dirty_bytes, top="top", severities={"nope": "warning"}
                )

    def test_served_severity_filter_matches_local(self, dirty_bytes):
        from repro.server import ServerState

        with ServerState() as state:
            session, _ = state.create_session(
                data=dirty_bytes, top="top", default_severity="warning"
            )
            state.check(session.sid)
            served = state.violations(session.sid, severity="warning")
            local = Engine(mode="sequential").check(
                dirty_layout(), rules=[r.as_warning() for r in asap7.full_deck()]
            )
            filtered = filter_violations_payload(
                local.payload(), severity="warning"
            )
        assert json.dumps(served["violations"], sort_keys=True) == json.dumps(
            filtered["violations"], sort_keys=True
        )

    def test_served_check_with_waivers_matches_local(self, dirty_gds, tmp_path, capsys):
        from repro.server import ServerState
        from repro.server.http import start_server

        markers = tmp_path / "markers.json"
        main(
            ["check", dirty_gds, "--top", "top", "--output", str(markers),
             "--format", "json"]
        )
        capsys.readouterr()
        waivers = tmp_path / "waivers.json"
        main(["waive", str(markers), "-o", str(waivers)])
        capsys.readouterr()

        state = ServerState()
        with start_server(state) as handle:
            served_code = main(
                ["check", dirty_gds, "--top", "top", "--server", handle.url,
                 "--waivers", str(waivers), "--format", "csv"]
            )
            served_out = capsys.readouterr().out
        local_code = main(
            ["check", dirty_gds, "--top", "top", "--waivers", str(waivers),
             "--format", "csv"]
        )
        local_out = capsys.readouterr().out
        assert served_out == local_out
        assert ",1," in served_out  # waived column set on some rows
        assert served_code == local_code == 0  # everything waived


# ---------------------------------------------------------------------------
# Incremental recheck with severities + waivers
# ---------------------------------------------------------------------------


class TestIncrementalLifecycle:
    def test_recheck_with_severities_and_waivers_matches_cold(self, tmp_path, capsys):
        """The PR 10 acceptance path, end to end through the CLI."""
        deck_path = tmp_path / "deck.py"
        deck_path.write_text(
            "from repro.workloads import asap7\n"
            "RULES = [asap7.spacing_rule(asap7.M2).as_warning(),\n"
            "         asap7.width_rule(asap7.M2)]\n"
        )
        old_path = tmp_path / "old.gds"
        write(gdsii_from_layout(build_design("uart")), old_path)
        new_layout = dirty_layout(seed=11)
        new_path = tmp_path / "new.gds"
        write(gdsii_from_layout(new_layout), new_path)

        markers = tmp_path / "markers.json"
        main(
            ["check", str(new_path), "--top", "top", "--deck", str(deck_path),
             "--output", str(markers), "--format", "json"]
        )
        capsys.readouterr()
        waivers = tmp_path / "waivers.json"
        main(["waive", str(markers), "-o", str(waivers), "--rule", "M2.W.1"])
        capsys.readouterr()

        code = main(
            ["recheck", str(old_path), str(new_path), "--top", "top",
             "--deck", str(deck_path), "--waivers", str(waivers),
             "--format", "csv"]
        )
        spliced_csv = capsys.readouterr().out
        cold_code = main(
            ["check", str(new_path), "--top", "top", "--deck", str(deck_path),
             "--waivers", str(waivers), "--format", "csv"]
        )
        cold_csv = capsys.readouterr().out
        assert spliced_csv == cold_csv
        # Spacing is warning-severity, width is fully waived: nothing blocks.
        assert code == cold_code == 0

    def test_check_window_applies_waivers(self, tmp_path, capsys):
        layout = Layout("w")
        top = layout.new_cell("top")
        top.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 100))
        top.add_polygon(1, Polygon.from_rect_coords(15, 0, 25, 100))
        layout.set_top("top")
        path = tmp_path / "w.gds"
        write(gdsii_from_layout(layout), path)
        deck_path = tmp_path / "deck.py"
        deck_path.write_text(
            "from repro.core.rules import layer\n"
            "RULES = [layer(1).spacing().greater_than(8).named('SP')]\n"
        )
        waivers = tmp_path / "wv.json"
        save_waivers([{"rule": "SP", "region": [0, 0, 100, 100]}], waivers)
        code = main(
            ["check-window", str(path), "0", "0", "100", "100",
             "--deck", str(deck_path), "--waivers", str(waivers)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 violations, 1 waived" in out

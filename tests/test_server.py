"""DRC-as-a-service: ServerState, the HTTP shell, and the CLI client path."""

import http.client
import json
import logging
import os
import random
import socket
import struct
import sys
import threading
import time
import urllib.parse

import pytest

from repro.cli import main
from repro.client import (
    ClientError,
    ServeClient,
    report_json_summary,
    report_json_to_csv,
)
from repro.core.engine import EngineOptions
from repro.core.incremental import check_window
from repro.core.rules import load_deck_file
from repro.gdsii import read_layout, read_layout_bytes, write, write_bytes
from repro.geometry import Rect
from repro.layout import gdsii_from_layout
from repro.server import (
    AdmissionScheduler,
    BadRequestError,
    ServerState,
    SingleFlight,
    UnknownSessionError,
    start_server,
)
from repro.server.http import MAX_BODY_BYTES
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations

from .test_recheck import (
    cold_report,
    edit_add_instance,
    edit_add_top_polygon,
    edit_remove_top_polygon,
    edit_stdcell_definition,
)


@pytest.fixture()
def dirty_gds(tmp_path):
    layout = build_design("uart")
    inject_violations(layout, InjectionPlan(spacing=2), layer=asap7.M2, seed=1)
    path = tmp_path / "dirty.gds"
    write(gdsii_from_layout(layout), path)
    return str(path)


@pytest.fixture()
def dirty_bytes(dirty_gds):
    """The dirty design's GDSII stream, as a client uploads it."""
    return _read_bytes(dirty_gds)


@pytest.fixture()
def edited_gds_pair(tmp_path):
    old = build_design("uart")
    old_path = tmp_path / "old.gds"
    write(gdsii_from_layout(old), old_path)
    new = build_design("uart")
    inject_violations(new, InjectionPlan(spacing=1), layer=asap7.M2, seed=7)
    new_path = tmp_path / "new.gds"
    write(gdsii_from_layout(new), new_path)
    return str(old_path), str(new_path)


@pytest.fixture()
def edited_bytes_pair(edited_gds_pair):
    return tuple(_read_bytes(path) for path in edited_gds_pair)


@pytest.fixture()
def state():
    with ServerState() as st:
        yield st


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _renamed(data):
    """The same layout under another library name: other bytes, same content."""
    layout = read_layout_bytes(data)
    layout.name = "renamed"
    return write_bytes(gdsii_from_layout(layout))


def _sentinel_deck(tmp_path):
    """A deck file that, when run, creates a sentinel file: (deck, sentinel)."""
    sentinel = tmp_path / "deck_ran"
    deck = tmp_path / "deck.py"
    deck.write_text(
        f"open({str(sentinel)!r}, 'w').close()\n"
        "from repro.workloads import asap7\n"
        "RULES = asap7.full_deck()\n"
    )
    return str(deck), sentinel


def _post(served, target, body, content_type):
    """``(status, body bytes)`` of one POST to a served daemon."""
    host, port = served.server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", target, body, {"Content-Type": content_type})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _cold_report(layout):
    """The oracle: a sequential engine with no store to be answered by."""
    return cold_report(layout, asap7.full_deck())


def _local_report(path, top="top"):
    layout = read_layout(path)
    layout.set_top(top)
    return _cold_report(layout)


class TestSingleFlight:
    def test_sequential_calls_each_execute(self):
        flight = SingleFlight()
        calls = []
        for i in range(3):
            value, leader = flight.do("k", lambda i=i: calls.append(i) or i)
            assert leader and value == i
        assert calls == [0, 1, 2]

    def test_concurrent_calls_coalesce(self):
        flight = SingleFlight()
        release = threading.Event()
        ran = []

        def slow():
            release.wait(10)
            ran.append(1)
            return "report"

        results = []

        def worker():
            results.append(flight.do("k", slow))

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for t in threads:
            t.start()
        # Wait until the leader is registered, then let everyone pile on.
        for _ in range(200):
            if flight.waiting("k"):
                break
            time.sleep(0.005)
        time.sleep(0.05)
        release.set()
        for t in threads:
            t.join(10)
        assert len(ran) == 1
        assert [value for value, _ in results] == ["report"] * 5
        assert sum(1 for _, leader in results if leader) == 1

    def test_leader_error_fans_out_and_key_retires(self):
        flight = SingleFlight()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            flight.do("k", boom)
        # The key retired with the failure: a later call runs fresh.
        value, leader = flight.do("k", lambda: "ok")
        assert value == "ok" and leader


class TestSessions:
    def test_content_addressed_reuse(self, state, dirty_bytes):
        first, created = state.create_session(data=dirty_bytes, top="top")
        again, created_again = state.create_session(data=dirty_bytes, top="top")
        assert created and not created_again
        assert first.sid == again.sid
        assert state.counters["sessions_created"] == 1
        assert state.counters["sessions_reused"] == 1

    def test_other_bytes_of_the_same_content_land_on_same_session(
        self, state, dirty_bytes
    ):
        first, _ = state.create_session(data=dirty_bytes, top="top")
        renamed = _renamed(dirty_bytes)
        assert renamed != dirty_bytes
        by_content, created = state.create_session(data=renamed, top="top")
        assert not created
        assert by_content.sid == first.sid
        # Repeat upload short-circuits on the byte hash (no re-parse).
        again, created = state.create_session(data=renamed, top="top")
        assert not created and again.sid == first.sid

    def test_recheck_moves_a_session_off_its_creation_content(
        self, state, edited_gds_pair
    ):
        # A recheck moves the session to new content; loading the content
        # it was created from again — the same bytes or other bytes of it —
        # must land on a session at that content, not on the moved one.
        old_path, new_path = edited_gds_pair
        old_bytes = _read_bytes(old_path)
        moved, _ = state.create_session(data=old_bytes, top="top")
        state.recheck(moved.sid, data=_read_bytes(new_path))
        local = _local_report(old_path).to_csv()
        assert local != _local_report(new_path).to_csv()
        by_bytes, created = state.create_session(data=old_bytes, top="top")
        assert created and by_bytes.sid != moved.sid
        by_content, created = state.create_session(data=_renamed(old_bytes), top="top")
        assert not created and by_content.sid == by_bytes.sid
        report, _ = state.check(by_content.sid)
        assert report.to_csv() == local

    def test_unknown_session_raises_404_error(self, state):
        with pytest.raises(UnknownSessionError):
            state.check("deadbeef")

    def test_delete_session(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        state.delete_session(session.sid)
        with pytest.raises(UnknownSessionError):
            state.session(session.sid)

    def test_bad_severity_rejected(self, state, dirty_bytes):
        with pytest.raises(BadRequestError):
            state.create_session(
                data=dirty_bytes, top="top", default_severity="fatal"
            )

    def test_unreadable_upload_rejected(self, state, dirty_bytes):
        for data in (b"", b"not a stream", dirty_bytes[:200]):
            with pytest.raises(BadRequestError, match="cannot load layout"):
                state.create_session(data=data, top="top")


class TestServedChecks:
    def test_served_report_matches_local_engine(self, state, dirty_gds, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        report, meta = state.check(session.sid)
        assert meta["source"] == "engine"
        local = _local_report(dirty_gds)
        assert report.to_csv() == local.to_csv()
        # Violations JSON (the CI contract) matches too.
        served = json.loads(report.to_json(indent=None))
        expected = json.loads(local.to_json(indent=None))
        assert [r["violations"] for r in served["results"]] == [
            r["violations"] for r in expected["results"]
        ]

    def test_repeat_check_hits_report_lru(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        first, meta1 = state.check(session.sid)
        second, meta2 = state.check(session.sid)
        assert meta1["source"] == "engine"
        assert meta2["source"] == "report-lru"
        assert second is first
        assert state.counters["engine_runs"] == 1
        assert state.counters["report_lru_hits"] == 1

    def test_concurrent_identical_requests_one_engine_run(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        release = threading.Event()
        engine_calls = []
        real_check = state.engine.check

        def slow_check(*args, **kwargs):
            engine_calls.append(1)
            release.wait(30)
            return real_check(*args, **kwargs)

        state.engine.check = slow_check
        clients = 6
        outcomes = []

        def worker():
            outcomes.append(state.check(session.sid))

        threads = [threading.Thread(target=worker) for _ in range(clients)]
        for t in threads:
            t.start()
        # All requests registered (the counter bumps on entry) before the
        # leader is allowed to finish its engine run.
        for _ in range(400):
            if state.counters["requests"] >= clients:
                break
            time.sleep(0.005)
        time.sleep(0.05)
        release.set()
        for t in threads:
            t.join(30)
        assert len(outcomes) == clients
        assert len(engine_calls) == 1  # exactly one engine run
        assert state.counters["engine_runs"] == 1
        # Every other request was answered by the flight or the LRU.
        fanned_out = (
            state.counters["coalesced"] + state.counters["report_lru_hits"]
        )
        assert fanned_out == clients - 1
        reports = {id(report) for report, _ in outcomes}
        assert len(reports) == 1  # one report object fanned out to everyone

    def test_check_window_clips_to_window(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        full, _ = state.check(session.sid)
        region = full.results[0].violations or [
            v for r in full.results for v in r.violations
        ]
        target = region[0].region
        windowed, meta = state.check_window(
            session.sid, [[target.xlo, target.ylo, target.xhi, target.yhi]]
        )
        assert meta["endpoint"] == "check-window"
        assert windowed.total_violations >= 1
        with pytest.raises(BadRequestError):
            state.check_window(session.sid, [[0, 0, 10]])
        with pytest.raises(BadRequestError):
            state.check_window(session.sid, [])

    def test_check_window_rejects_bad_coordinates(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        with pytest.raises(BadRequestError):
            state.check_window(session.sid, [["abc", 0, 10, 10]])
        with pytest.raises(BadRequestError):
            state.check_window(session.sid, [[None, 0, 10, 10]])
        # Non-integral floats are rejected, not silently truncated.
        with pytest.raises(BadRequestError):
            state.check_window(session.sid, [[0.5, 0, 10, 10]])

    def test_check_window_never_becomes_session_baseline(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        # A windowed check on a never-checked session leaves no baseline...
        state.check_window(session.sid, [[0, 0, 10, 10]])
        assert session.report() is None
        assert state.reports.memory_entries() == 0
        # ...and never replaces an existing full-extent baseline.
        full, _ = state.check(session.sid)
        _, meta = state.check_window(session.sid, [[0, 0, 10, 10]])
        assert meta["source"] == "report-lru"  # a filter of the full report
        assert session.report() is full
        payload = state.violations(session.sid)
        assert payload["total"] == full.total_violations

    def test_recheck_after_check_window_splices_full_baseline(
        self, state, tmp_path
    ):
        # Both versions carry the same M2 violations; the edit only touches
        # M1, so the recheck reuses the cached M2 results verbatim. A
        # windowed report leaking into the store would silently drop
        # every M2 violation outside the window.
        old = build_design("uart")
        inject_violations(old, InjectionPlan(spacing=2), layer=asap7.M2, seed=1)
        old_path = tmp_path / "old.gds"
        write(gdsii_from_layout(old), old_path)
        new = build_design("uart")
        inject_violations(new, InjectionPlan(spacing=2), layer=asap7.M2, seed=1)
        inject_violations(new, InjectionPlan(spacing=1), layer=asap7.M1, seed=7)
        new_path = tmp_path / "new.gds"
        write(gdsii_from_layout(new), new_path)

        session, _ = state.create_session(data=_read_bytes(old_path), top="top")
        full, _ = state.check(session.sid)
        assert full.total_violations > 0
        state.check_window(session.sid, [[0, 0, 10, 10]])
        report, _ = state.recheck(session.sid, data=_read_bytes(new_path))
        local = _local_report(str(new_path))
        assert report.to_csv() == local.to_csv()

    def test_recheck_builds_only_the_new_versions_tree(
        self, state, edited_gds_pair, edited_bytes_pair, built_trees
    ):
        old_path, new_path = edited_gds_pair
        old_bytes, new_bytes = edited_bytes_pair
        session, _ = state.create_session(data=old_bytes, top="top")
        state.check(session.sid)
        built_trees.clear()
        report, meta = state.recheck(session.sid, data=new_bytes)
        # The session already holds the old version's tree and digests.
        assert built_trees == [session.layout]
        assert "windowed" in meta["recheck"]["disposition"].values()
        assert report.to_csv() == _local_report(new_path).to_csv()

    def test_recheck_advances_session_version(
        self, state, edited_gds_pair, edited_bytes_pair
    ):
        old_path, new_path = edited_gds_pair
        old_bytes, new_bytes = edited_bytes_pair
        session, _ = state.create_session(data=old_bytes, top="top")
        state.check(session.sid)
        assert session.version == 1
        report, meta = state.recheck(session.sid, data=new_bytes, verify=True)
        assert session.version == 2
        assert "recheck" in meta
        local = _local_report(new_path)
        assert report.to_csv() == local.to_csv()
        # The session now serves the new version's violations.
        payload = state.violations(session.sid)
        assert payload["total"] == report.total_violations


#: Edits that take uart's base to each version the state machine visits.
VERSION_EDITS = [
    (),
    (edit_add_top_polygon,),
    (edit_add_top_polygon, edit_stdcell_definition),
    (edit_remove_top_polygon,),
    (edit_add_instance,),
]
WINDOWS = [
    [[0, 0, 600, 600]],
    [[-100, -100, 2000, 900], [1500, 300, 4000, 2500]],
    [[-100000, -100000, 100000, 100000]],
]


@pytest.fixture(scope="module")
def versions():
    """Per version: the GDS bytes, the cold oracle report, its layout."""
    out = []
    for edits in VERSION_EDITS:
        layout = build_design("uart")
        for edit in edits:
            edit(layout)
        data = write_bytes(gdsii_from_layout(layout))
        parsed = read_layout_bytes(data)
        parsed.set_top("top")
        out.append((data, _cold_report(parsed), parsed))
    assert len({report.to_csv() for _, report, _ in out}) > 2  # versions differ
    return out


class TestOneAnswerTier:
    """Random request sequences against a model of the one report store.

    The model knows which versions the store has a full-extent report of;
    from that alone it predicts, for every request, who answers
    (``report-lru`` or the engine) and whether ``engine_runs`` grows: only
    on a full check or a window check of a version the store has not seen,
    and on a recheck to non-identical content (or without a baseline).
    Every served CSV must equal the cold oracle of the version it is for.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_session_state_machine(self, versions, seed):
        rng = random.Random(seed)
        with ServerState() as state:
            first, _ = state.create_session(data=versions[0][0], top="top")
            current = {first.sid: 0}  # session -> version it is at
            created_from = {0}  # a session id is the content it was created from
            seen = set()  # versions the store holds a full report of
            runs = bypassed = 0

            def full(sid):
                nonlocal runs
                version = current[sid]
                if version not in seen:
                    runs += 1
                    seen.add(version)
                    return "engine"
                return "report-lru"

            for step in range(30):
                sid = rng.choice(sorted(current))
                data, oracle, layout = versions[current[sid]]
                action = rng.choice(
                    ["check", "window", "recheck", "revert", "violations", "session"]
                )
                where = f"seed {seed} step {step}: {action} at v{current[sid]}"
                if action == "check":
                    expected = full(sid)
                    report, meta = state.check(sid)
                    assert meta["source"] == expected, where
                    assert report.to_csv() == oracle.to_csv(), where
                elif action == "window":
                    rects = [Rect(*w) for w in rng.choice(WINDOWS)]
                    expected = "report-lru"
                    if current[sid] not in seen:  # computed, and not stored
                        runs += 1
                        expected = "engine"
                    report, meta = state.check_window(
                        sid, [[r.xlo, r.ylo, r.xhi, r.yhi] for r in rects]
                    )
                    assert meta["source"] == expected, where
                    cold = check_window(
                        layout, rects, rules=asap7.full_deck(),
                        options=EngineOptions(use_cache=False),
                    )
                    assert report.to_csv() == cold.to_csv(), where
                elif action in ("recheck", "revert"):
                    # "revert" goes back to a version some step already
                    # reached; either may also re-upload the current one.
                    pool = sorted(seen) if action == "revert" and seen else range(len(versions))
                    target = rng.choice(list(pool))
                    if target == current[sid] and target in seen:
                        bypassed += 1
                    else:
                        runs += 1
                    report, meta = state.recheck(sid, data=versions[target][0])
                    current[sid] = target
                    seen.add(target)
                    assert meta["source"] == "engine", where
                    assert report.to_csv() == versions[target][1].to_csv(), where
                elif action == "violations":
                    full(sid)
                    listing = state.violations(sid)
                    assert listing["total"] == oracle.total_violations, where
                    assert state.session(sid).info()["last_total_violations"] == (
                        oracle.total_violations
                    ), where
                elif current[sid] not in created_from:
                    # A second session, from the bytes this one has reached.
                    other, created = state.create_session(data=data, top="top")
                    assert created and other.sid not in current, where
                    created_from.add(current[sid])
                    current[other.sid] = current[sid]
                assert state.counters["engine_runs"] == runs, where
                assert state.counters["admission_bypassed"] == bypassed, where
            assert state.reports.memory_entries() == len(seen)

    def test_check_after_recheck_and_second_session_are_store_hits(self, versions):
        with ServerState() as state:
            session, _ = state.create_session(data=versions[0][0], top="top")
            state.check(session.sid)
            state.recheck(session.sid, data=versions[1][0])
            runs = state.counters["engine_runs"]
            report, meta = state.check(session.sid)
            assert meta["source"] == "report-lru"
            assert report.to_csv() == versions[1][1].to_csv()
            other, created = state.create_session(data=versions[1][0], top="top")
            assert created and other.sid != session.sid
            report, meta = state.check(other.sid)
            assert meta["source"] == "report-lru"
            assert report.to_csv() == versions[1][1].to_csv()
            assert state.counters["engine_runs"] == runs
            stats = state.stats()
            assert stats["report_lru_size"] == 2 and stats["report_lru_capacity"] == 64
            assert stats["report_hits"] >= 3 and stats["report_misses"] >= 1

    def test_queued_rechecks_splice_onto_the_version_they_find(self, versions):
        # Two rechecks of one session, to v1 and to v2 (= v1 + one more
        # edit), both parked behind the session's admission slot. Whichever
        # runs second diffs against the version the first left behind, so it
        # must splice onto that version's report — not the one of v0, which
        # was current when both requests arrived.
        with ServerState() as state:
            session, _ = state.create_session(data=versions[0][0], top="top")
            state.check(session.sid)
            served = {}

            def recheck(target):
                report, _ = state.recheck(session.sid, data=versions[target][0])
                served[target] = report.to_csv()

            threads = [threading.Thread(target=recheck, args=(t,)) for t in (1, 2)]
            with state.scheduler.admit(session.sid):
                for thread in threads:
                    thread.start()
                for _ in range(2000):
                    if state.scheduler.waiting == 2:
                        break
                    time.sleep(0.005)
                assert state.scheduler.waiting == 2
            for thread in threads:
                thread.join(60)
            assert served == {t: versions[t][1].to_csv() for t in (1, 2)}
            # What they stored is what every later request is answered with.
            for target in (1, 2):
                other, _ = state.create_session(data=versions[target][0], top="top")
                report, meta = state.check(other.sid)
                assert meta["source"] == "report-lru"
                assert report.to_csv() == versions[target][1].to_csv()

    def test_status_pages_do_not_count_as_requests(self, versions):
        with ServerState(report_lru=1) as state:
            first, _ = state.create_session(data=versions[0][0], top="top")
            second, _ = state.create_session(data=versions[1][0], top="top")
            state.check(first.sid)
            state.check(second.sid)  # evicts first's report from the front
            before = (state.reports.hits, state.reports.misses)
            assert first.info()["last_total_violations"] is None
            assert second.info()["last_total_violations"] == (
                versions[1][1].total_violations
            )
            state.sessions()
            assert (state.reports.hits, state.reports.misses) == before
            _, meta = state.check(second.sid)  # still the front's one entry
            assert meta["source"] == "report-lru"

    def test_report_lru_zero_keeps_nothing(self, versions):
        with ServerState(report_lru=0) as state:
            session, _ = state.create_session(data=versions[0][0], top="top")
            for _ in range(2):
                report, meta = state.check(session.sid)
                assert meta["source"] == "engine"
                assert report.to_csv() == versions[0][1].to_csv()
            assert state.counters["engine_runs"] == 2
            assert state.stats()["report_lru_size"] == 0

    def test_disk_back_answers_a_restarted_daemon(self, versions, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        with ServerState(options=options) as state:
            session, _ = state.create_session(data=versions[1][0], top="top")
            _, meta = state.check(session.sid)
            assert meta["source"] == "engine"
        with ServerState(options=options) as state:
            session, _ = state.create_session(data=versions[1][0], top="top")
            report, meta = state.check(session.sid)
            assert meta["source"] == "report-lru"
            assert state.counters["engine_runs"] == 0
            assert report.to_csv() == versions[1][1].to_csv()

    def test_undigestable_deck_rechecks_incrementally_and_writes_no_report(
        self, versions, tmp_path
    ):
        deck = tmp_path / "deck.py"
        deck.write_text(
            "from repro.core.rules import polygons\n"
            "from repro.workloads import asap7\n"
            "RULES = asap7.full_deck() + [polygons().ensures(lambda p: True)]\n"
        )
        cache = tmp_path / "cache"
        options = EngineOptions(cache_dir=str(cache))
        with ServerState(options=options, deck_path=str(deck)) as state:
            session, _ = state.create_session(data=versions[0][0], top="top")
            assert session.info()["coalescable"] is False
            _, meta = state.check(session.sid)
            assert meta["source"] == "engine"
            _, meta = state.check(session.sid)
            assert meta["source"] == "report-lru"
            report, meta = state.recheck(session.sid, data=versions[1][0])
            assert "cold" not in meta["recheck"]["disposition"].values()
            assert "windowed" in meta["recheck"]["disposition"].values()
            oracle = versions[1][1]
            assert report.total_violations == oracle.total_violations
            assert state.violations(session.sid)["total"] == oracle.total_violations
            assert state.counters["engine_runs"] == 2
            # Never coalesces, never shares: a twin session computes for itself.
            twin, created = state.create_session(data=versions[1][0], top="top")
            assert created and twin.sid != session.sid
            _, meta = state.check(twin.sid)
            assert meta["source"] == "engine"
        assert not os.path.exists(cache / "reports")


class TestViolationsFiltering:
    def test_severity_rule_and_bbox_filters(self, state, dirty_bytes):
        session, _ = state.create_session(
            data=dirty_bytes,
            top="top",
            severities={"M2.S.1": "warning"},
            default_severity="error",
        )
        everything = state.violations(session.sid)
        assert everything["total"] > 0
        assert {v["severity"] for v in everything["violations"]} >= {"warning"}

        warnings = state.violations(session.sid, severity="warning")
        assert warnings["total"] > 0
        assert all(v["severity"] == "warning" for v in warnings["violations"])
        assert all(v["rule"] == "M2.S.1" for v in warnings["violations"])

        named = state.violations(session.sid, rules=["M2.S.1"])
        assert named["total"] == warnings["total"]

        first = everything["violations"][0]["region"]
        boxed = state.violations(session.sid, bbox=first)
        assert boxed["total"] >= 1

        far = state.violations(session.sid, bbox=[10**8, 10**8, 10**8 + 1, 10**8 + 1])
        assert far["total"] == 0

    def test_bad_filters_rejected(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        with pytest.raises(BadRequestError):
            state.violations(session.sid, severity="fatal")
        with pytest.raises(BadRequestError):
            state.violations(session.sid, rules=["NO.SUCH.RULE"])
        with pytest.raises(BadRequestError):
            state.violations(session.sid, bbox=[0, 0, 1])
        with pytest.raises(BadRequestError):
            state.violations(session.sid, bbox=[0, 0, "x", 1])

    def test_stats_shape(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        state.check(session.sid)
        stats = state.stats()
        assert stats["sessions"] == 1
        assert stats["queue_depth"] == 0
        assert stats["counters"]["engine_runs"] == 1
        assert stats["latency"]["check"]["count"] == 1
        assert stats["options"]["mode"] == "sequential"


class TestHTTP:
    @pytest.fixture()
    def served(self):
        state = ServerState()
        with start_server(state) as handle:
            yield handle

    @pytest.fixture()
    def client(self, served):
        with ServeClient(served.url) as client:
            yield client

    def test_health_and_stats(self, client):
        assert client.health()["status"] == "ok"
        assert "counters" in client.stats()

    def test_full_check_round_trip(self, served, client, dirty_gds, dirty_bytes):
        info = client.create_session(data=dirty_bytes, top="top")
        assert info["created"] is True
        response = client.check(info["session"])
        local = _local_report(dirty_gds)
        assert report_json_to_csv(response["report"]) == local.to_csv()
        assert report_json_summary(
            json.loads(local.to_json(indent=None))
        ) == local.summary()
        # Re-dumping the served report is byte-identical to local --format json
        # apart from the measured seconds, which are honest wall times.
        served_json = json.dumps(response["report"], indent=2, sort_keys=True)
        assert json.loads(served_json) == response["report"]

    def test_upload_bytes_round_trip(self, client, dirty_bytes):
        info = client.create_session(data=dirty_bytes, top="top")
        repeat = client.create_session(data=dirty_bytes, top="top")
        assert repeat["session"] == info["session"]
        assert repeat["created"] is False
        violations = client.violations(info["session"], severity="error")
        assert violations["total"] > 0

    def test_errors_carry_status(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.check("deadbeef")
        assert excinfo.value.status == 404
        with pytest.raises(ClientError) as excinfo:
            client.create_session(data=b"not a stream")
        assert excinfo.value.status == 400
        with pytest.raises(ClientError) as excinfo:
            client._request("GET", "/no/such/route")
        assert excinfo.value.status == 404

    def test_a_multi_root_upload_is_a_typed_400(self, client, dirty_bytes, caplog):
        with pytest.raises(ClientError) as excinfo:
            client.create_session(data=dirty_bytes)  # no top=
        assert excinfo.value.status == 400
        assert (
            "has 2 root cells (AOI21x1, top); pick the one to check with --top/top="
            in str(excinfo.value)
        )
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]

    def test_a_deck_in_the_query_is_a_typed_400_and_never_runs(
        self, served, client, dirty_bytes, tmp_path, caplog
    ):
        deck, sentinel = _sentinel_deck(tmp_path)
        sid = client.create_session(data=dirty_bytes, top="top")["session"]
        query = urllib.parse.urlencode({"top": "top", "deck": deck})
        for target in (f"/sessions?{query}", f"/sessions/{sid}/recheck?{query}"):
            status, body = _post(served, target, dirty_bytes, "application/octet-stream")
            assert status == 400, target
            error = json.loads(body)["error"]
            assert "the ASAP7 benchmark deck" in error and "deck=" in error
        assert [s["session"] for s in client.sessions()] == [sid]
        assert client.session(sid)["version"] == 1
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]
        assert not sentinel.exists()
        load_deck_file(deck)  # the deck does write its sentinel when it runs
        assert sentinel.exists()

    def test_a_deck_refusal_names_the_daemons_own_deck(self, dirty_bytes, tmp_path):
        deck = tmp_path / "tight.py"
        deck.write_text(
            "from repro.core.rules import layer\n"
            "RULES = [layer(20).spacing().greater_than(60)]\n"
        )
        with start_server(ServerState(deck_path=str(deck))) as handle:
            status, body = _post(
                handle, "/sessions?top=top&deck=other.py", dirty_bytes,
                "application/octet-stream",
            )
        assert status == 400 and f"({deck})" in json.loads(body)["error"]

    def test_a_json_layout_body_is_a_typed_400_that_reads_nothing(
        self, served, client, dirty_gds, dirty_bytes, tmp_path, caplog
    ):
        deck, sentinel = _sentinel_deck(tmp_path)
        sid = client.create_session(data=dirty_bytes, top="top")["session"]
        bodies = {
            "deck": {"path": dirty_gds, "top": "top", "deck": deck},
            "readable path": {"path": dirty_gds, "top": "top"},
            "missing path": {"path": str(tmp_path / "nosuch.gds"), "top": "top"},
        }
        replies = set()
        for name, body in bodies.items():
            for target in ("/sessions", f"/sessions/{sid}/recheck"):
                status, reply = _post(
                    served, target, json.dumps(body).encode(), "application/json"
                )
                assert status == 400, (name, target)
                replies.add(reply)
        # One reply for all of them: it cannot tell a readable file from a
        # missing one, and it names the shape a layout must take.
        assert len(replies) == 1
        assert "application/octet-stream" in json.loads(replies.pop())["error"]
        assert [s["session"] for s in client.sessions()] == [sid]
        assert client.session(sid)["version"] == 1
        assert not sentinel.exists()
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]

    def test_severities_ride_an_upload(self, client, dirty_bytes):
        rule = asap7.rule_name("S", asap7.M2)
        info = client.create_session(
            data=dirty_bytes, top="top", severities={rule: "warning"}
        )
        assert info["created"] and info["severities"][rule] == "warning"
        assert client.session(info["session"])["severities"][rule] == "warning"
        plain = client.create_session(data=dirty_bytes, top="top")
        assert plain["created"] and plain["session"] != info["session"]
        assert plain["severities"][rule] == "error"
        listing = client.violations(info["session"], severity="warning")
        assert listing["total"] > 0
        assert {row["rule"] for row in listing["violations"]} == {rule}

    @pytest.mark.parametrize(
        "raw", ["not json", "[1]", '"warning"', '{"M2.S.1": 1}', '{"M2.S.1": null}']
    )
    def test_malformed_severities_are_a_typed_400(self, served, dirty_bytes, raw, caplog):
        query = urllib.parse.urlencode({"top": "top", "severities": raw})
        status, body = _post(
            served, f"/sessions?{query}", dirty_bytes, "application/octet-stream"
        )
        assert status == 400
        assert json.loads(body) == {
            "error": f"severities must be a JSON object of rule name to severity, got {raw!r}"
        }
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]

    def test_delete_and_sessions_listing(self, client, dirty_bytes):
        info = client.create_session(data=dirty_bytes, top="top")
        assert any(s["session"] == info["session"] for s in client.sessions())
        client.delete_session(info["session"])
        assert client.sessions() == []

    def test_bad_window_coordinates_are_400_not_500(self, client, dirty_bytes):
        info = client.create_session(data=dirty_bytes, top="top")
        with pytest.raises(ClientError) as excinfo:
            client.check_window(info["session"], [["abc", 0, 10, 10]])
        assert excinfo.value.status == 400

    def test_kept_alive_requests_answer_without_delayed_ack_stalls(self, served, client, dirty_bytes):
        # Headers and body in one send, TCP_NODELAY on: with either missing,
        # each response on a kept-alive connection waits ~40 ms on the
        # client's delayed ACK.
        sid = client.create_session(data=dirty_bytes, top="top")["session"]
        client.check(sid)
        listing = f"/sessions/{sid}/violations?severity=error"
        expected = json.dumps(served.state.violations(sid, severity="error"), sort_keys=True)
        host, port = served.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.monotonic()
            for i in range(20):
                conn.request("GET", listing if i % 2 else "/health")
                response = conn.getresponse()
                body = response.read()
                assert response.status == 200
                if i % 2:
                    assert body == expected.encode()
            assert time.monotonic() - start < 0.5
        finally:
            conn.close()

    def test_an_inverted_bbox_is_a_400(self, client, dirty_bytes):
        sid = client.create_session(data=dirty_bytes, top="top")["session"]
        with pytest.raises(ClientError) as excinfo:
            client.violations(sid, bbox=[500, 500, 0, 0])
        assert excinfo.value.status == 400
        assert "bbox [500, 500, 0, 0] must be non-empty (x1 <= x2 and y1 <= y2)" in str(excinfo.value)

    @pytest.mark.parametrize("declared", ["abc", "-5", "1e3", str(10**12)])
    def test_a_bad_content_length_is_a_typed_400(self, served, declared, caplog):
        host, port = served.server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                f"POST /sessions HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {declared}\r\n\r\n".encode("ascii")
            )
            reply = b"".join(iter(lambda: sock.recv(65536), b""))  # the server closes
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {
            "error": f"Content-Length {declared!r} rejected (0 to {MAX_BODY_BYTES} bytes)"
        }
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]

    def test_shutdown_drains_idle_keepalive_connection(self, monkeypatch):
        from repro.server.http import DrcRequestHandler

        # Idle keep-alive connections must be bounded, or the drain in
        # server_close() joins their handler threads forever.
        assert DrcRequestHandler.timeout is not None
        monkeypatch.setattr(DrcRequestHandler, "timeout", 0.5)
        handle = start_server(ServerState())
        host, port = handle.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            # The connection is now idle but still open (HTTP/1.1
            # keep-alive); closing the server must not hang on it.
            start = time.monotonic()
            handle.close()
            assert time.monotonic() - start < 8
        finally:
            conn.close()

    def test_shutdown_closes_idle_connections_at_once(self):
        from repro.server.http import DrcRequestHandler

        assert DrcRequestHandler.timeout >= 5  # the default: the drain must not wait it out
        handle = start_server(ServerState())
        host, port = handle.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        client = ServeClient(handle.url)
        try:
            conn.request("GET", "/health")
            conn.getresponse().read()
            client.health()
            start = time.monotonic()
            handle.close()
            assert time.monotonic() - start < 1.0
            conn.request("GET", "/health")
            with pytest.raises((http.client.HTTPException, OSError)):
                conn.getresponse()
        finally:
            conn.close()
            client.close()

    def test_shutdown_still_drains_a_request_in_flight(self, monkeypatch):
        handle = start_server(ServerState())
        client = ServeClient(handle.url)
        client.health()  # the connection the slow request reuses
        entered = threading.Event()
        stats = ServerState.stats

        def slow_stats(state):
            entered.set()
            time.sleep(0.5)
            return stats(state)

        monkeypatch.setattr(ServerState, "stats", slow_stats)
        replies = []
        worker = threading.Thread(target=lambda: replies.append(client.stats()))
        worker.start()
        assert entered.wait(10)
        start = time.monotonic()
        handle.close()
        assert time.monotonic() - start >= 0.3  # waited for the answer
        worker.join(10)
        assert replies and "counters" in replies[0]
        client.close()

    def test_recheck_over_http(self, client, edited_gds_pair, edited_bytes_pair):
        old_path, new_path = edited_gds_pair
        old_bytes, new_bytes = edited_bytes_pair
        info = client.create_session(data=old_bytes, top="top")
        client.check(info["session"])
        response = client.recheck(info["session"], data=new_bytes, verify=True)
        assert response["meta"]["recheck"]["cache_hit"] is False
        local = _local_report(new_path)
        assert report_json_to_csv(response["report"]) == local.to_csv()


class TestCLIServer:
    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    @pytest.mark.parametrize("tight", [False, True], ids=["asap7", "tight"])
    def test_check_via_server_matches_local(self, dirty_gds, tmp_path, mode, tight, capsys):
        """A daemon started with ``--deck`` serves what a local check of that
        deck prints, in both modes."""
        deck = []
        if tight:
            path = tmp_path / "tight.py"
            path.write_text(
                "from repro.core.rules import layer\n"
                "RULES = [layer(20).spacing().greater_than(60),"
                " layer(30).spacing().greater_than(55)]\n"
            )
            deck = ["--deck", str(path)]
        state = ServerState(EngineOptions(mode=mode), deck_path=deck[-1] if deck else None)
        with start_server(state) as handle:
            code = main(
                ["check", dirty_gds, "--top", "top", "--server", handle.url,
                 "--format", "csv"]
            )
            served_out = capsys.readouterr().out
        assert code == 1  # dirty design: violations found
        main(["check", dirty_gds, "--top", "top", "--mode", mode, *deck, "--format", "csv"])
        local_out = capsys.readouterr().out
        assert served_out == local_out
        assert len(served_out.splitlines()) > 1

    def test_check_via_server_closes_its_client(self, dirty_gds, monkeypatch, capsys):
        closed = []
        close = ServeClient.close
        monkeypatch.setattr(ServeClient, "close", lambda client: (closed.append(1), close(client)))
        with start_server(ServerState()) as handle:
            main(["check", dirty_gds, "--top", "top", "--server", handle.url])
            assert closed == [1]
            with pytest.raises(SystemExit):
                main(["check", dirty_gds, "--server", handle.url])  # several roots: a 400
            assert closed == [1, 1]

    def test_server_rejects_output_and_waivers(self, dirty_gds):
        with pytest.raises(SystemExit):
            main(
                ["check", dirty_gds, "--server", "http://127.0.0.1:1",
                 "--output", "markers.json"]
            )

    def test_unreachable_server_exits_cleanly(self, dirty_gds):
        with pytest.raises(SystemExit):
            main(["check", dirty_gds, "--server", "http://127.0.0.1:1"])

    def test_a_missing_top_reads_as_the_local_error(self, dirty_gds, capsys):
        with start_server(ServerState()) as handle:
            with pytest.raises(SystemExit) as exit_info:
                main(["check", dirty_gds, "--server", handle.url])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "pick the one to check with --top/top=" in err


class TestKeptAliveClient:
    @pytest.fixture()
    def served(self):
        with start_server(ServerState()) as handle:
            yield handle

    def test_threads_share_a_client_on_one_connection_each(self, dirty_bytes, monkeypatch):
        from repro.server.http import DrcRequestHandler

        connections = []
        setup = DrcRequestHandler.setup

        def counting(handler):
            connections.append(handler.client_address)
            setup(handler)

        monkeypatch.setattr(DrcRequestHandler, "setup", counting)
        queries = [{}, {"severity": "error"}, {"rules": [asap7.rule_name("S", asap7.M2)]}, {"bbox": [0, 0, 5000, 5000]}]
        with start_server(ServerState()) as handle, ServeClient(handle.url) as client:
            sid = client.create_session(data=dirty_bytes, top="top")["session"]
            report = json.dumps(client.check(sid)["report"], sort_keys=True)
            expected = [json.dumps(client.violations(sid, **q), sort_keys=True) for q in queries]
            answers, errors = [], []

            def turn():
                try:
                    for _ in range(3):
                        answers.append(
                            (
                                json.dumps(client.check(sid)["report"], sort_keys=True),
                                [json.dumps(client.violations(sid, **q), sort_keys=True) for q in queries],
                            )
                        )
                except Exception as error:  # pragma: no cover - surfaced below
                    errors.append(repr(error))

            threads = [threading.Thread(target=turn) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads' use of the client
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert answers == [(report, expected)] * 12
        assert len(connections) <= 1 + len(threads)

    def test_a_connection_closed_while_idle_is_reopened_without_a_replay(
        self, edited_gds_pair, edited_bytes_pair, monkeypatch
    ):
        from repro.server.http import DrcRequestHandler

        monkeypatch.setattr(DrcRequestHandler, "timeout", 0.2)
        connections = []
        setup = DrcRequestHandler.setup
        monkeypatch.setattr(
            DrcRequestHandler, "setup", lambda handler: (connections.append(1), setup(handler))
        )
        old_path, new_path = edited_gds_pair
        old_bytes, new_bytes = edited_bytes_pair
        with start_server(ServerState()) as handle, ServeClient(handle.url) as client:
            sid = client.create_session(data=old_bytes, top="top")["session"]
            client.check(sid)
            version = client.session(sid)["version"]
            assert len(connections) == 1
            time.sleep(0.6)  # the daemon times the idle connection out
            response = client.recheck(sid, data=new_bytes)
            assert response["meta"]["recheck"]["cache_hit"] is False
            assert client.session(sid)["version"] == version + 1
            assert len(connections) == 2
        assert report_json_to_csv(response["report"]) == _local_report(new_path).to_csv()

    def test_a_response_cut_short_is_not_sent_again(self):
        """Once a byte of the response has arrived the request may have run:
        a reset then is an error, never a second send."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted, requests = [], []

        def serve():
            conn, _ = listener.accept()
            accepted.append(conn)
            body = b'{"status": "ok"}'
            for answer in (
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body),
                b"HTTP/1.1 200 OK\r\nContent-",
            ):
                requests.append(conn.recv(65536))
                conn.sendall(answer)
            time.sleep(0.1)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()  # a reset, mid-headers

        thread = threading.Thread(target=serve)
        thread.start()
        host, port = listener.getsockname()
        with ServeClient(f"http://{host}:{port}", timeout=10) as client:
            assert client.health() == {"status": "ok"}
            with pytest.raises(ClientError, match="response cut short"):
                client.stats()
        thread.join(10)
        listener.close()
        assert not thread.is_alive() and len(accepted) == 1 and len(requests) == 2

    def test_errors_keep_their_status_and_message_on_a_kept_connection(self, served):
        with ServeClient(served.url) as client:
            for _ in range(2):
                with pytest.raises(ClientError) as excinfo:
                    client.session("nosuch")
                assert excinfo.value.status == 404
                assert "nosuch" in str(excinfo.value)
            assert client.health()["status"] == "ok"

    def test_close_ends_every_connection_and_the_client_stays_usable(self, served):
        client = ServeClient(served.url)
        client.health()
        thread = threading.Thread(target=client.health)
        thread.start()
        thread.join(10)
        connections = list(client._open)
        assert len(connections) == 2 and all(c.sock is not None for c in connections)
        client.close()
        assert client._open == [] and all(c.sock is None for c in connections)
        assert client.health()["status"] == "ok"
        assert len(client._open) == 1 and client._open[0] not in connections
        client.close()


class TestAdmissionScheduler:
    def test_rejects_non_positive_max(self):
        with pytest.raises(ValueError):
            AdmissionScheduler(0)

    def test_caps_active_runs(self):
        sched = AdmissionScheduler(2)
        release = threading.Event()
        third_entered = threading.Event()

        def hold(sid):
            with sched.admit(sid):
                release.wait(20)

        holders = [
            threading.Thread(target=hold, args=(sid,)) for sid in ("a", "b")
        ]
        for t in holders:
            t.start()
        for _ in range(400):
            if sched.active == 2:
                break
            time.sleep(0.005)
        assert sched.active == 2

        def third():
            with sched.admit("c"):
                third_entered.set()

        t3 = threading.Thread(target=third)
        t3.start()
        # The third distinct session must park: the cap is 2.
        assert not third_entered.wait(0.2)
        assert sched.waiting == 1
        release.set()
        t3.join(20)
        for t in holders:
            t.join(20)
        assert third_entered.is_set()
        assert sched.active == 0
        assert sched.waiting == 0
        assert sched.max_active_seen == 2

    def test_same_session_serializes(self):
        sched = AdmissionScheduler(4)
        release = threading.Event()
        second_entered = threading.Event()

        def first():
            with sched.admit("s"):
                release.wait(20)

        t1 = threading.Thread(target=first)
        t1.start()
        for _ in range(400):
            if sched.active == 1:
                break
            time.sleep(0.005)

        def second():
            with sched.admit("s"):
                second_entered.set()

        t2 = threading.Thread(target=second)
        t2.start()
        # Same sid: must wait even though 3 slots are free.
        assert not second_entered.wait(0.2)
        release.set()
        t1.join(20)
        t2.join(20)
        assert second_entered.is_set()
        assert sched.max_active_seen == 1


@pytest.fixture()
def dirty_gds_b(tmp_path):
    layout = build_design("uart")
    inject_violations(layout, InjectionPlan(spacing=2), layer=asap7.M2, seed=5)
    path = tmp_path / "dirty_b.gds"
    write(gdsii_from_layout(layout), path)
    return str(path)


class TestConcurrentServing:
    def test_distinct_sessions_run_concurrently(self, dirty_bytes, dirty_gds_b):
        # Two sessions, max_concurrent=2: both engine runs must be inside
        # the engine at the same instant (the barrier would time out and
        # fail the test under the old global engine lock).
        with ServerState(max_concurrent=2) as state:
            s1, _ = state.create_session(data=dirty_bytes, top="top")
            s2, _ = state.create_session(data=_read_bytes(dirty_gds_b), top="top")
            assert s1.sid != s2.sid
            both_inside = threading.Barrier(2)
            real_check = state.engine.check

            def overlapping_check(*args, **kwargs):
                both_inside.wait(30)
                return real_check(*args, **kwargs)

            state.engine.check = overlapping_check
            errors = []

            def client(sid):
                try:
                    state.check(sid)
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(sid,))
                for sid in (s1.sid, s2.sid)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not errors
            assert state.scheduler.max_active_seen == 2
            assert state.counters["engine_runs"] == 2

    @pytest.mark.parametrize("max_concurrent", [1, 2, 4])
    def test_byte_identical_reports_at_any_concurrency(
        self, dirty_gds, dirty_bytes, dirty_gds_b, max_concurrent
    ):
        # The acceptance gate: served reports are byte-identical to a local
        # engine run at every concurrency level, under concurrent clients.
        local_a = _local_report(dirty_gds)
        local_b = _local_report(dirty_gds_b)
        with ServerState(max_concurrent=max_concurrent) as state:
            s1, _ = state.create_session(data=dirty_bytes, top="top")
            s2, _ = state.create_session(data=_read_bytes(dirty_gds_b), top="top")
            results = []
            errors = []

            def client(sid, expected_csv):
                try:
                    report, _ = state.check(sid)
                    results.append(report.to_csv() == expected_csv)
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            threads = []
            for _ in range(2):
                threads.append(
                    threading.Thread(
                        target=client, args=(s1.sid, local_a.to_csv())
                    )
                )
                threads.append(
                    threading.Thread(
                        target=client, args=(s2.sid, local_b.to_csv())
                    )
                )
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not errors
            assert results == [True] * 4

    def test_identical_recheck_bypasses_admission(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        first, _ = state.check(session.sid)
        assert state.counters["engine_runs"] == 1
        # Same bytes again: digest-identical content, splice-only recheck.
        report, meta = state.recheck(session.sid, data=dirty_bytes)
        assert meta["recheck"]["clean"] is True
        assert report.to_csv() == first.to_csv()
        assert state.counters["admission_bypassed"] == 1
        assert state.counters["engine_runs"] == 1  # no new engine run
        # verify=True is a full cold check: it must NOT bypass.
        state.recheck(session.sid, data=dirty_bytes, verify=True)
        assert state.counters["admission_bypassed"] == 1
        assert state.counters["engine_runs"] == 2


class TestStatsExtended:
    def test_percentiles_requests_and_gauges(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        state.check(session.sid)
        state.check(session.sid)  # LRU hit; still a request
        stats = state.stats()
        check = stats["latency"]["check"]
        assert check["count"] == 2
        assert check["requests"] == 2
        assert check["p50_ms"] <= check["p95_ms"] <= check["p99_ms"]
        assert check["p99_ms"] <= check["max_ms"]
        assert stats["queue_depth"] == 0
        assert stats["active_requests"] == 0
        assert stats["max_concurrent"] == 1  # the default
        assert stats["max_active_seen"] == 1
        assert stats["counters"]["admission_bypassed"] == 0

    def test_single_sample_percentiles_degenerate(self, state, dirty_bytes):
        session, _ = state.create_session(data=dirty_bytes, top="top")
        state.check(session.sid)
        check = state.stats()["latency"]["check"]
        assert check["count"] == 1
        assert check["p50_ms"] == check["p95_ms"] == check["p99_ms"]


class TestWaitReady:
    def test_returns_health_payload_when_up(self):
        state = ServerState()
        with start_server(state) as handle:
            with ServeClient(handle.url) as client:
                payload = client.wait_ready(timeout=10)
        assert payload["status"] == "ok"

    def test_times_out_against_dead_endpoint(self):
        client = ServeClient("http://127.0.0.1:1")
        start = time.monotonic()
        with pytest.raises(ClientError, match="not ready"):
            client.wait_ready(timeout=0.3)
        assert time.monotonic() - start < 5

    def test_http_errors_propagate_immediately(self, monkeypatch):
        client = ServeClient("http://127.0.0.1:1")
        calls = []

        def failing_health():
            calls.append(1)
            raise ClientError("boom", status=500)

        monkeypatch.setattr(client, "health", failing_health)
        with pytest.raises(ClientError, match="boom"):
            client.wait_ready(timeout=5)
        assert calls == [1]  # up-but-unhappy is not a startup race

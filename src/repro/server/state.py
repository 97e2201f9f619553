"""DRC-as-a-service: the HTTP-free service core.

The engine is expensive to warm and cheap to reuse: the report store's
memory front and the parsed sessions pay off only on the *second* check of
a process, and a one-shot ``repro check`` throws them away. :class:`ServerState` is the
resident counterpart: one warm :class:`~repro.core.engine.Engine` serving
many requests.

Three mechanisms turn the warm engine into served throughput:

* **Sessions** — clients upload a layout's GDSII bytes once via
  :meth:`create_session`; the session keeps the parsed layout, its
  hierarchy tree, the rule deck, and the per-layer geometry digests, so a
  check request never re-parses or re-walks anything. Sessions are
  content-addressed by the deck digest plus the layer digests — loading the
  same layout twice (from any client) lands on the same session. Every
  session checks against the one deck the daemon loaded when it was
  constructed (``repro serve --deck``, or the ASAP7 benchmark deck): a
  request carries layout bytes and per-rule severities, never a file name,
  so nothing a client sends is opened or run.

* **One report store, single-flight coalescing** — every request first
  asks the :class:`~repro.core.reportcache.ReportCache` the daemon shares
  with its engine for the session's (deck digest, layer digests) key, so
  repeats, a ``check`` after a ``recheck`` and a second session reaching
  the same content are memory hits; concurrent identical requests it
  cannot answer collapse into one engine run (:class:`SingleFlight`).

* **One engine lock** — engine runs take :attr:`ServerState.engine_lock`,
  so one runs at a time and two requests of one session never mutate the
  same baseline at once. Pure cache paths never take it: report-store
  hits, coalesced followers, and splice-only rechecks whose new content is
  digest-identical to the session's current version answer at once. The
  daemon runs one interpreter that holds the GIL through the pure-Python
  parts of a check, so overlapping engine runs bought no throughput. Each
  run still executes inside its own
  :class:`~repro.core.engine.CheckContext`, because a splice-only recheck
  shares the engine with a locked run.

* **Structured responses** — reports serialize to the same
  :meth:`~repro.core.results.CheckReport.to_json` schema the CLI prints,
  so served violation output is byte-identical to a local ``repro check``.
  One encoder writes every reply body (:func:`encode_reply`,
  :meth:`ServerState.violations_body`): it dumps the envelope and per-rule
  headers and joins each table's memoised row text
  (:meth:`~repro.violation_table.ViolationTable.json_rows`), so a turn
  encodes only the rows of tables it has not served before.

The HTTP layer (:mod:`repro.server.http`) is a thin shell over this class;
tests drive :class:`ServerState` directly.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import threading
import time
import uuid
from collections import deque
from itertools import compress
from operator import add
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..gdsii import read_layout_bytes
from ..geometry import Rect
from ..hierarchy.tree import HierarchyTree
from ..layout.library import Layout
from ..core.engine import Engine, EngineOptions
from ..core.packstore import layer_digests, resolve_store, store_key
from ..core.reportcache import (
    DEFAULT_CAPACITY,
    ReportCache,
    deck_digest,
    private_deck,
    report_key,
)
from ..core.results import CheckReport
from ..core.rules import SEVERITIES, Rule, load_deck_file
from ..reporting import FilterError, RuleRows, check_bbox, filter_entries, listing_dicts

__all__ = [
    "BadRequestError",
    "ServeError",
    "ServerState",
    "Session",
    "SingleFlight",
    "UnknownSessionError",
    "encode_listing",
    "encode_reply",
    "report_payload",
]

#: Request latencies kept per endpoint for the /stats percentiles.
_LATENCY_WINDOW = 512


class ServeError(ReproError):
    """A request the service must reject; carries an HTTP status."""

    status = 400


class BadRequestError(ServeError):
    """Malformed request payload or parameters."""

    status = 400


class UnknownSessionError(ServeError):
    """The named session does not exist (or was unloaded)."""

    status = 404


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample."""
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _int_coords(coords: Sequence[Any], what: str) -> List[int]:
    """Validate ``[x1, y1, x2, y2]``-style coordinates as exact integers.

    Rejects non-numeric values and non-integral floats with a 400 rather
    than letting ``int()`` raise (a 500) or truncate silently.
    """
    out: List[int] = []
    for c in coords:
        try:
            value = int(c)
        except (TypeError, ValueError):
            raise BadRequestError(
                f"{what} coordinates must be integers, got {list(coords)!r}"
            ) from None
        if value != c:
            raise BadRequestError(
                f"{what} coordinate {c!r} is not an integer"
            )
        out.append(value)
    return out


# ---------------------------------------------------------------------------
# Single-flight request coalescing
# ---------------------------------------------------------------------------


class _Call:
    """One in-flight computation: the leader fills it, followers wait."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Collapse concurrent calls with the same key into one execution.

    The first caller of a key becomes the *leader* and runs ``fn``; callers
    arriving while the leader is still running become *followers* and block
    until the leader's result (or exception) fans out to them. The key is
    retired before the event fires, so a request arriving after completion
    starts a fresh flight — coalescing never serves a stale computation,
    only the one that was genuinely concurrent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Call] = {}

    def do(self, key: str, fn: Callable[[], Any]) -> Tuple[Any, bool]:
        """Run ``fn`` once per concurrent key; returns ``(value, leader)``."""
        with self._lock:
            call = self._inflight.get(key)
            leader = call is None
            if leader:
                call = _Call()
                self._inflight[key] = call
        if leader:
            try:
                call.result = fn()
            except BaseException as error:
                call.error = error
            finally:
                # Retire the key *before* waking followers so no new caller
                # can attach to a completed flight.
                with self._lock:
                    self._inflight.pop(key, None)
                call.event.set()
        else:
            call.event.wait()
        if call.error is not None:
            raise call.error
        return call.result, leader


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class Session:
    """One loaded layout + deck, with everything a check needs pre-warmed."""

    def __init__(
        self,
        sid: str,
        layout: Layout,
        tree: HierarchyTree,
        rules: List[Rule],
        digests: Dict[int, str],
        deck_dig: Optional[str],
        reports: ReportCache,
        *,
        top: Optional[str] = None,
    ) -> None:
        self.sid = sid
        self.layout = layout
        self.tree = tree
        #: The session's deck, severities included — severity is a Rule
        #: field (PR 10), not per-session state, so /violations and a local
        #: ``repro check`` of the same deck read the same value.
        self.rules = rules
        self.digests = digests
        self.deck_dig = deck_dig
        #: The deck's part of the session's report keys. A deck with no
        #: digest gets a token private to the session: it finds its own
        #: reports in the store's memory front and nothing reaches disk.
        self.deck_key = deck_dig or private_deck()
        self._reports = reports
        self.top = top
        self.version = 1
        self.checks = 0
        self.created = time.time()
        self.last_recheck: Optional[Dict[str, Any]] = None

    def report(self, digests: Optional[Dict[int, str]] = None) -> Optional[CheckReport]:
        """The full-extent report of the current version (or of the one with
        ``digests``), if the store has it."""
        key = report_key(self.deck_key, digests or self.digests)
        return self._reports.load(key, self.rules, layout_name=self.layout.name)

    def info(self) -> Dict[str, Any]:
        # A status page is not a request: peek, so polling neither counts
        # as a hit nor reorders the memory front.
        report = self._reports.peek(report_key(self.deck_key, self.digests))
        return {
            "session": self.sid,
            "layout": self.layout.name,
            "top": self.tree.top.name,
            "layers": sorted(self.digests),
            "rules": [rule.name for rule in self.rules],
            "severities": {rule.name: rule.severity for rule in self.rules},
            "coalescable": self.deck_dig is not None,
            "version": self.version,
            "checks": self.checks,
            "last_total_violations": (
                None if report is None else report.total_violations
            ),
        }


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class ServerState:
    """A resident engine plus sessions, coalescing, and counters.

    Thread-safe: HTTP handler threads (or test threads) call the public
    methods concurrently. ``_lock`` guards the bookkeeping (sessions,
    counters — every counter update happens under it, so concurrent
    handlers never lose an increment); ``engine_lock`` lets one engine run
    execute at a time. ``report_lru`` bounds the report store's memory
    front (0: every request computes, or reads the disk back).

    The deck is loaded here, once: ``deck_path`` (a :class:`RuleError` if
    it cannot be used), or the ASAP7 benchmark deck. Every session checks
    against it, with per-request severities applied on top.
    """

    def __init__(
        self,
        options: Optional[EngineOptions] = None,
        *,
        deck_path: Optional[str] = None,
        report_lru: int = DEFAULT_CAPACITY,
    ) -> None:
        if deck_path is None:
            from ..workloads import asap7

            self.rules = asap7.full_deck()
            #: How a refused ``deck=`` names the deck the daemon checks with.
            self.deck_name = "the ASAP7 benchmark deck"
        else:
            self.rules = load_deck_file(deck_path)
            self.deck_name = deck_path
        self.reports = ReportCache(resolve_store(options), capacity=report_lru)
        self.engine = Engine(options=options, reports=self.reports)
        #: Held around every engine run; cache answers never take it.
        self.engine_lock = threading.Lock()
        self._lock = threading.Lock()
        self._flight = SingleFlight()
        self._sessions: Dict[str, Session] = {}
        self._by_bytes: Dict[Tuple, str] = {}
        self._latencies: Dict[str, deque] = {}
        self._endpoint_requests: Dict[str, int] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "engine_runs": 0,
            "coalesced": 0,
            "report_lru_hits": 0,
            "admission_bypassed": 0,
            "sessions_created": 0,
            "sessions_reused": 0,
        }
        self.started = time.time()
        self.closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the warm engine; idempotent."""
        if self.closed:
            return
        self.closed = True
        self.engine.close()

    def __enter__(self) -> "ServerState":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- severities ----------------------------------------------------------

    @staticmethod
    def _apply_severities(
        rules: List[Rule],
        severities: Optional[Dict[str, str]],
        default_severity: Optional[str],
    ) -> List[Rule]:
        """The deck with request-level severity overrides applied onto rules.

        ``severities`` must name rules that exist in the deck (a typo would
        otherwise be silently ignored — the override would appear accepted
        but never apply). Returns the input list unchanged when there is
        nothing to override, so the common no-override path shares the
        daemon's deck objects.
        """
        overrides = dict(severities or {})
        unknown = sorted(set(overrides) - {rule.name for rule in rules})
        if unknown:
            raise BadRequestError(
                f"unknown rule(s) in severities: {unknown}; deck rules: "
                f"{sorted(rule.name for rule in rules)}"
            )
        if not overrides and default_severity is None:
            return rules
        return [
            rule.with_severity(
                overrides.get(rule.name, default_severity or rule.severity)
            )
            for rule in rules
        ]

    # -- sessions ------------------------------------------------------------

    @staticmethod
    def _load_version(
        data: bytes,
        top: Optional[str],
        previous: Optional[Tuple[Layout, HierarchyTree, Dict[int, str]]] = None,
    ) -> Tuple[Layout, HierarchyTree, Dict[int, str]]:
        """One layout version: parsed, with its tree and per-layer digests.

        ``previous``, another version's ``(layout, tree, digests)``, is carried
        over for every structure whose bytes it was read from; which version
        it is does not matter for the result, only for how much is reused.
        """
        old_layout, old_tree, old_digests = previous or (None, None, None)
        try:
            layout = read_layout_bytes(data, previous=old_layout)
            if top:
                layout.set_top(top)
        except ReproError as error:
            raise BadRequestError(f"cannot load layout: {error}") from error
        if not top:
            roots = sorted(cell.name for cell in layout.root_cells())
            if len(roots) > 1:
                raise BadRequestError(
                    f"the uploaded layout has {len(roots)} root cells "
                    f"({', '.join(roots)}); pick the one to check with --top/top="
                )
        tree = HierarchyTree(layout, previous=old_tree)
        digests = layer_digests(
            tree, layout.layers(), None if previous is None else (old_tree, old_digests)
        )
        return layout, tree, digests

    def create_session(
        self,
        *,
        data: bytes,
        top: Optional[str] = None,
        severities: Optional[Dict[str, str]] = None,
        default_severity: Optional[str] = None,
    ) -> Tuple[Session, bool]:
        """Load (or re-attach to) a session; returns ``(session, created)``.

        Sessions are content-addressed: the id hashes the deck digest and
        the per-layer geometry digests, so posting the same layout again —
        from any client — returns the existing warm session. Uploads are
        additionally memoised by their byte hash, so a repeat upload skips
        even the GDSII parse. Decks whose predicates cannot be
        fingerprinted get a random id and are excluded from coalescing
        (honest, never wrong).

        ``severities``/``default_severity`` override the deck's own per-rule
        severities: the overrides are applied onto the :class:`Rule` objects
        themselves (severity is a core Rule field), so the deck digest — and
        therefore the session id and every report/coalescing key — reflects
        them, and two clients loading the same layout with different
        severity maps land on different sessions instead of silently
        mutating each other's.
        """
        if default_severity is not None and default_severity not in SEVERITIES:
            raise BadRequestError(
                f"default_severity must be one of {SEVERITIES}, got {default_severity!r}"
            )
        for name, sev in (severities or {}).items():
            if sev not in SEVERITIES:
                raise BadRequestError(
                    f"severity of rule {name!r} must be one of {SEVERITIES}, got {sev!r}"
                )
        severity_fp = (
            default_severity or "",
            tuple(sorted((severities or {}).items())),
        )
        bytes_key = (hashlib.sha256(data).hexdigest(), top or "", severity_fp)
        with self._lock:
            sid = self._by_bytes.get(bytes_key)
            session = self._sessions.get(sid) if sid else None
        if session is not None:
            return self._reuse(session)

        rules = self._apply_severities(self.rules, severities, default_severity)
        layout, tree, digests = self._load_version(data, top)
        deck_dig = deck_digest(rules)
        if deck_dig is None:
            sid = uuid.uuid4().hex[:16]
        else:
            sid = store_key(
                "session", deck_dig, tuple(sorted(digests.items())), top or ""
            )[:16]

        with self._lock:
            existing = self._sessions.get(sid)
            while existing is not None and existing.digests != digests:
                # A recheck moved that session to other content: this
                # content's session lives at the next id of the chain.
                sid = store_key("session", sid)[:16]
                existing = self._sessions.get(sid)
            if existing is None:
                session = Session(
                    sid,
                    layout,
                    tree,
                    rules,
                    digests,
                    deck_dig,
                    self.reports,
                    top=top,
                )
                self._sessions[sid] = session
                self.counters["sessions_created"] += 1
                self._by_bytes[bytes_key] = sid
                return session, True
            self._by_bytes[bytes_key] = sid
        return self._reuse(existing)

    def _reuse(self, session: Session) -> Tuple[Session, bool]:
        with self._lock:
            self.counters["sessions_reused"] += 1
        return session, False

    def session(self, sid: str) -> Session:
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise UnknownSessionError(f"unknown session {sid!r}")
        return session

    def sessions(self) -> List[Dict[str, Any]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [s.info() for s in sorted(sessions, key=lambda s: s.created)]

    def delete_session(self, sid: str) -> None:
        with self._lock:
            if sid not in self._sessions:
                raise UnknownSessionError(f"unknown session {sid!r}")
            del self._sessions[sid]
            self._by_bytes = {k: v for k, v in self._by_bytes.items() if v != sid}

    # -- the request pipeline ------------------------------------------------

    def _run(
        self, runner: Callable[[], CheckReport], *, bypass: bool = False
    ) -> CheckReport:
        """One engine run under the engine lock (or without it, for a cache answer).

        ``bypass=True`` is a cache answer: the runner is known to touch no
        engine compute (a splice-only recheck of digest-identical content),
        so it executes at once, answered without the engine lock, and does
        not count as an ``engine_runs``; the ``admission_bypassed`` counter
        records it instead.
        """
        if bypass:
            with self._lock:
                self.counters["admission_bypassed"] += 1
            return runner()
        with self.engine_lock:
            with self._lock:
                self.counters["engine_runs"] += 1
            return runner()

    def _serve(
        self,
        endpoint: str,
        session: Session,
        key_extra: Tuple,
        runner: Callable[[], CheckReport],
        *,
        stored: Optional[Callable[[], Optional[CheckReport]]] = None,
        bypass: bool = False,
    ) -> Tuple[CheckReport, Dict[str, Any]]:
        """Answer one request: from the store (``stored``, None for a request
        that must always run), a concurrent twin, or ``runner``. A deck
        with no digest never coalesces."""
        start = time.perf_counter()
        with self._lock:
            self.counters["requests"] += 1
            self._endpoint_requests[endpoint] = (
                self._endpoint_requests.get(endpoint, 0) + 1
            )
        meta: Dict[str, Any] = {
            "endpoint": endpoint,
            "session": session.sid,
            "source": "engine",
        }
        report = stored() if stored is not None else None
        if report is not None:
            with self._lock:
                self.counters["report_lru_hits"] += 1
            meta["source"] = "report-lru"
        elif session.deck_dig is None:
            report = self._run(runner, bypass=bypass)
        else:
            digests = tuple(sorted(session.digests.items()))
            key = store_key("serve", endpoint, session.deck_dig, digests, key_extra)
            report, leader = self._flight.do(
                key, lambda: self._run(runner, bypass=bypass)
            )
            if not leader:
                with self._lock:
                    self.counters["coalesced"] += 1
                meta["source"] = "coalesced"
        seconds = time.perf_counter() - start
        meta["seconds"] = seconds
        with self._lock:
            session.checks += 1
            self._latencies.setdefault(endpoint, deque(maxlen=_LATENCY_WINDOW)).append(
                seconds
            )
        return report, meta

    # -- endpoints -----------------------------------------------------------

    def check(self, sid: str) -> Tuple[CheckReport, Dict[str, Any]]:
        """Run the session's full deck (store-answered, coalesced)."""
        session = self.session(sid)

        def runner() -> CheckReport:
            return self.engine.check(
                session.layout,
                rules=session.rules,
                tree=session.tree,
                deck_key=session.deck_key,
            )

        return self._serve("check", session, (), runner, stored=session.report)

    def check_window(
        self, sid: str, windows: Sequence[Sequence[int]]
    ) -> Tuple[CheckReport, Dict[str, Any]]:
        """Run the deck on one or more windows of the session's layout.

        A stored full-extent report of the current version is filtered to
        the windows; otherwise the windowed procedure runs in-process,
        whatever the daemon's mode. A clipped report
        is never stored, so the recheck splice baseline and ``/violations``
        only ever see full-extent reports.
        """
        from ..core.incremental import check_window as run_window, filter_to_regions

        session = self.session(sid)
        rects = []
        for coords in windows:
            if len(coords) != 4:
                raise BadRequestError(
                    f"window must be [x1, y1, x2, y2], got {list(coords)!r}"
                )
            rect = Rect(*_int_coords(coords, "window"))
            if rect.is_empty:
                raise BadRequestError(f"window {rect} must be non-empty")
            rects.append(rect)
        if not rects:
            raise BadRequestError("check-window needs at least one window")

        def stored() -> Optional[CheckReport]:
            full = session.report()
            return None if full is None else filter_to_regions(full, rects)

        def runner() -> CheckReport:
            return run_window(
                session.layout,
                rects,
                rules=session.rules,
                options=self.engine.options,
                tree=session.tree,
                reports=self.reports,
            )

        key_extra = tuple((r.xlo, r.ylo, r.xhi, r.yhi) for r in rects)
        return self._serve("check-window", session, key_extra, runner, stored=stored)

    def recheck(
        self,
        sid: str,
        *,
        data: bytes,
        top: Optional[str] = None,
        verify: bool = False,
    ) -> Tuple[CheckReport, Dict[str, Any]]:
        """Diff a new layout version against the session's current one.

        The stored report of the session's current version is the splice
        baseline (without one the new version is checked cold); the new
        report is stored under the new version's key and the session
        advances to it, so chained edits keep rechecking incrementally.
        Concurrent identical rechecks coalesce into one diff+splice.
        """
        from ..core.incremental import recheck as run_recheck

        session = self.session(sid)
        with self._lock:
            current = (session.layout, session.tree, session.digests)
        new_layout, new_tree, new_digests = self._load_version(
            data, top or session.top, current
        )

        def runner() -> CheckReport:
            # Read the session's version and its report here, not before
            # the engine lock: a queued recheck must diff against, and splice
            # onto the report of, the version the one ahead of it left.
            with self._lock:
                old, old_tree, old_digests = (
                    session.layout, session.tree, session.digests
                )
            baseline = session.report(old_digests)
            outcome = run_recheck(
                old,
                new_layout,
                rules=session.rules,
                options=self.engine.options,
                cached=baseline,
                verify=verify,
                old_tree=old_tree,
                new_tree=new_tree,
                old_digests=old_digests,
                new_digests=new_digests,
                reports=self.reports,
                deck_key=session.deck_key,
            )
            with self._lock:
                session.layout = new_layout
                session.tree = new_tree
                session.digests = new_digests
                session.version += 1
                # The bytes the session was created from no longer name it.
                self._by_bytes = {
                    k: v for k, v in self._by_bytes.items() if v != session.sid
                }
                session.last_recheck = {
                    "disposition": dict(outcome.disposition),
                    "cache_hit": outcome.cache_hit,
                    "clean": outcome.diff.is_clean,
                    "full": bool(outcome.diff.full),
                }
            if baseline is not None:
                _forget_superseded(baseline, outcome.report)
            return outcome.report

        # The bypass: the new content is digest-identical to the session's
        # current version and a baseline exists, so the runner is a pure
        # splice (clean diff, zero re-checked windows) — no engine compute,
        # no reason to wait for the engine lock. ``verify`` disables the
        # bypass because verification *is* a full cold check.
        bypass = (
            not verify
            and new_digests == session.digests
            and session.report() is not None
        )
        key_extra = (tuple(sorted(new_digests.items())), bool(verify))
        report, meta = self._serve("recheck", session, key_extra, runner, bypass=bypass)
        if session.last_recheck is not None:
            meta["recheck"] = dict(session.last_recheck)
        return report, meta

    def _listing(
        self,
        sid: str,
        severity: Optional[str],
        rules: Optional[Sequence[str]],
        bbox: Optional[Sequence[int]],
    ) -> Tuple[Dict[str, Any], List[Tuple[RuleRows, Optional[List[bool]]]]]:
        """A listing's session envelope and the report entries it keeps
        (:func:`repro.reporting.filter_entries`, with its keep-masks).

        Serves the stored report of the session's current version; when the
        store has none the session is checked first (which itself coalesces).
        """
        if severity is not None and severity not in SEVERITIES:
            raise BadRequestError(
                f"severity must be one of {SEVERITIES}, got {severity!r}"
            )
        box = None
        if bbox is not None:
            try:
                box = check_bbox(_int_coords(bbox, "bbox"))
            except FilterError as error:
                raise BadRequestError(str(error)) from None
        wanted = set(rules) if rules else None

        session = self.session(sid)
        report = session.report()
        if report is None:
            report, _ = self.check(sid)
        known = {result.rule.name for result in report.results}
        if wanted is not None and not wanted <= known:
            raise BadRequestError(
                f"unknown rule(s): {sorted(wanted - known)}; session rules: "
                f"{sorted(known)}"
            )
        envelope = {
            "session": session.sid,
            "layout": report.layout_name,
            "version": session.version,
        }
        return envelope, filter_entries(report.entries(), severity=severity, rules=rules, bbox=box)

    def violations(
        self,
        sid: str,
        *,
        severity: Optional[str] = None,
        rules: Optional[Sequence[str]] = None,
        bbox: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        """The session's violations, filtered by severity/rule/bbox, as the
        dict the ``GET /sessions/<id>/violations`` body encodes.

        Filtering is :func:`repro.reporting.filter_entries` over the
        report's tables — the same code path the local ``repro violations``
        command runs on a marker database, so served and local listings are
        byte-identical. The daemon sends :meth:`violations_body`, which
        writes these bytes without building the dicts.
        """
        envelope, kept = self._listing(sid, severity, rules, bbox)
        items = listing_dicts(kept)
        return {**envelope, "total": len(items), "violations": items}

    def violations_body(
        self,
        sid: str,
        *,
        severity: Optional[str] = None,
        rules: Optional[Sequence[str]] = None,
        bbox: Optional[Sequence[int]] = None,
    ) -> bytes:
        """``json.dumps(self.violations(...), sort_keys=True)``, encoded,
        from the tables' memoised row text (:func:`encode_listing`)."""
        return encode_listing(*self._listing(sid, severity, rules, bbox))

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Service counters (the /stats payload).

        Per-endpoint latency comes from a sliding window of the most recent
        :data:`_LATENCY_WINDOW` requests (``count`` is the window's fill,
        ``requests`` the all-time total); p50/p95/p99 interpolate linearly
        within that window.
        """
        with self._lock:
            latency = {}
            for endpoint, window in self._latencies.items():
                values = sorted(window)
                latency[endpoint] = {
                    "count": len(values),
                    "requests": self._endpoint_requests.get(endpoint, 0),
                    "p50_ms": round(statistics.median(values) * 1e3, 3),
                    "p95_ms": round(_percentile(values, 0.95) * 1e3, 3),
                    "p99_ms": round(_percentile(values, 0.99) * 1e3, 3),
                    "max_ms": round(max(values) * 1e3, 3),
                }
            options = self.engine.options
            return {
                "uptime_seconds": round(time.time() - self.started, 3),
                "sessions": len(self._sessions),
                "report_lru_size": self.reports.memory_entries(),
                "report_lru_capacity": self.reports.capacity,
                "report_hits": self.reports.hits,
                "report_misses": self.reports.misses,
                "counters": dict(self.counters),
                "options": {
                    "mode": options.mode,
                    "cache_dir": options.cache_dir,
                },
                "latency": latency,
            }


def report_payload(report: CheckReport, meta: Dict[str, Any]) -> Dict[str, Any]:
    """The served body of a check as a dict: the canonical report + request
    meta. The daemon writes these bytes with :func:`encode_reply`; a client
    re-dumping the ``report`` member with ``json.dumps(obj, indent=2,
    sort_keys=True)`` reproduces the local CLI's ``--format json`` output
    byte for byte (modulo the measured seconds, which are honest wall
    times of whichever side ran the check).
    """
    return {"report": report.payload(), "meta": meta}


def _forget_superseded(old: CheckReport, new: CheckReport) -> None:
    """Drop the row JSON of ``old``'s tables that ``new`` does not carry.

    The report store keeps ``old``, but a session serves its current
    version; kept, the re-checked tables' text of every stored version
    would add up (about 30 KB a version on the perf ledger's stream, and
    the store keeps 64 by default). Serving ``old`` again re-encodes
    those rows."""
    carried = {id(result.table) for result in new.results}
    for result in old.results:
        if id(result.table) not in carried:
            result.table.forget_json()


def _around(fields: Dict[str, Any], key: str) -> Tuple[str, str]:
    """The text of ``json.dumps({**fields, key: value}, sort_keys=True)``
    before and after ``value``'s own JSON text."""
    before = json.dumps({k: v for k, v in fields.items() if k < key}, sort_keys=True)[1:-1]
    after = json.dumps({k: v for k, v in fields.items() if k > key}, sort_keys=True)[1:-1]
    return (
        "{" + (before + ", " if before else "") + json.dumps(key) + ": ",
        (", " + after if after else "") + "}",
    )


def encode_reply(report: CheckReport, meta: Dict[str, Any]) -> bytes:
    """The body of a check, check-window or recheck reply:
    ``json.dumps(report_payload(report, meta), sort_keys=True)``, encoded.

    The envelope and each rule's header go through ``json.dumps``; the
    violations are each table's memoised row text, so a table the daemon
    has served before costs a join, not an encode. The pieces are joined
    once: a reply is ~180 KB, and every intermediate copy of it lands in
    the handler thread's malloc arena and stays in the daemon's RSS.
    """
    reply_open, reply_close = _around({"meta": meta}, "report")
    report_open, report_close = _around(report.header(), "results")
    parts = [reply_open, report_open, "["]
    for index, result in enumerate(report.results):
        rule_open, rule_close = _around(result.header(), "violations")
        rows = ", ".join(map(add, *result.table.json_rows()))
        parts += [", " if index else "", rule_open, "[", rows, "]", rule_close]
    parts += ["]", report_close, reply_close]
    return "".join(parts).encode()


def encode_listing(
    envelope: Dict[str, Any], kept: Sequence[Tuple[RuleRows, Optional[List[bool]]]]
) -> bytes:
    """The body of a ``GET violations`` reply: the envelope plus ``total``
    and the kept rows, each its table's memoised head, then ``rule`` and
    ``severity``, then its tail — the bytes ``json.dumps`` writes for the
    listing dict with sorted keys."""
    rows: List[str] = []
    for entry, mask in kept:
        heads, tails = entry.table.json_rows()
        if mask is not None:
            heads, tails = compress(heads, mask), compress(tails, mask)
        middle = f'"rule": {json.dumps(entry.rule)}, "severity": {json.dumps(entry.severity)}, '
        rows += [head + middle + tail for head, tail in zip(heads, tails)]
    listing_open, listing_close = _around({**envelope, "total": len(rows)}, "violations")
    return "".join((listing_open, "[", ", ".join(rows), "]", listing_close)).encode()

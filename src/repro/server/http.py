"""The HTTP shell around :class:`~repro.server.state.ServerState`.

Plain stdlib: a :class:`http.server.ThreadingHTTPServer` whose handler
routes JSON-over-HTTP requests into the service core. No framework, no new
dependencies — the serving shape of the KiCad-MCP DRC tools with the
transport stripped to what the standard library provides. Handler threads
run concurrently: a request the report store or a concurrent twin answers
never waits, while engine runs take the service core's one engine lock
(:attr:`~repro.server.state.ServerState.engine_lock`).

Endpoints
---------

====== ================================== ======================================
GET    ``/health``                        liveness probe
GET    ``/stats``                         request, store and latency counters
GET    ``/sessions``                      list loaded sessions
POST   ``/sessions``                      load a layout (GDSII bytes)
GET    ``/sessions/<id>``                 session info
DELETE ``/sessions/<id>``                 unload a session
POST   ``/sessions/<id>/check``           run the deck (coalesced)
POST   ``/sessions/<id>/check-window``    run the deck on windows
POST   ``/sessions/<id>/recheck``         diff + splice a new layout version
GET    ``/sessions/<id>/violations``      filter by severity / rule / bbox
POST   ``/shutdown``                      drain in-flight requests and exit
====== ================================== ======================================

``POST /sessions`` and ``POST .../recheck`` take one shape: the GDSII
stream bytes as the body (``Content-Type: application/octet-stream``) and
the options in the query string — ``top``, ``default_severity``,
``severities`` (one JSON object of rule name to severity) and, for a
recheck, ``verify`` (``1``/``true`` or ``0``/``false``). The daemon checks
every layout against the deck it was started with, so a request naming a
``deck`` is a 400 that names that deck, and a JSON body is a 400 that names
the upload shape, whatever the JSON says. Nothing a request carries is
opened or run. These two endpoints and ``GET .../violations`` (``severity``,
``rule``, ``bbox``) answer any other query name with a 400 that lists the
names they read.

Graceful shutdown: ``serve()`` converts SIGTERM/SIGINT into an orderly
drain — the accept loop stops, in-flight handler threads are joined
(``server_close`` blocks on them), and ``Engine.close()`` closes any
backend still open. ``POST /shutdown`` triggers the same
path remotely. Idle keep-alive connections cannot stall the drain: a
connection waiting for its next request line is closed as the drain
begins, and a handler finishing a request closes its connection instead
of waiting for another. Handler sockets also carry a read timeout
(:attr:`DrcRequestHandler.timeout`), so an idle connection is closed
after that long even while the daemon runs.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from ..util.logging import get_logger
from .state import BadRequestError, ServeError, ServerState, encode_reply

__all__ = ["DrcHTTPServer", "ServeHandle", "serve", "start_server"]

_logger = get_logger("server")

#: Largest request body accepted (a GDS upload), to bound memory.
MAX_BODY_BYTES = 512 * 1024 * 1024

#: The query names each endpoint that takes a query string reads.
CREATE_QUERY = ("top", "default_severity", "severities")
RECHECK_QUERY = ("top", "verify")
VIOLATIONS_QUERY = ("severity", "rule", "bbox")


class DrcHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one :class:`ServerState`."""

    allow_reuse_address = True
    #: Non-daemon handler threads + block_on_close make ``server_close()``
    #: wait for in-flight requests — the drain in graceful shutdown.
    daemon_threads = False

    def __init__(self, address: Tuple[str, int], state: ServerState) -> None:
        super().__init__(address, DrcRequestHandler)
        self.state = state
        self._shutdown_started = threading.Event()
        self._idle_lock = threading.Lock()
        #: Handlers of kept-alive connections waiting for a request line.
        self._idle: Set["DrcRequestHandler"] = set()
        self._draining = False

    def park(self, handler: "DrcRequestHandler") -> bool:
        """Register ``handler`` as waiting for its next request line; False
        once the drain has begun (the connection then closes)."""
        with self._idle_lock:
            if not self._draining:
                self._idle.add(handler)
            return not self._draining

    def unpark(self, handler: "DrcRequestHandler") -> bool:
        """Take ``handler`` off the idle set; False if it was not on it (the
        drain already closed its connection)."""
        with self._idle_lock:
            if handler in self._idle:
                self._idle.remove(handler)
                return True
            return False

    def server_close(self) -> None:
        """Close the listening socket and every idle connection at once,
        then join the handlers still serving a request (the drain)."""
        with self._idle_lock:
            self._draining = True
            idle, self._idle = self._idle, set()
        for handler in idle:
            try:
                handler.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client closed it first
        super().server_close()

    def trigger_shutdown(self) -> None:
        """Stop the accept loop from any thread (idempotent)."""
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        threading.Thread(target=self.shutdown, name="repro-serve-shutdown").start()


class DrcRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: with Nagle's algorithm a kept-alive client's next
    #: request waits on the delayed ACK of the previous response.
    disable_nagle_algorithm = True
    #: Socket timeout (seconds) for request reads. HTTP/1.1 keeps
    #: connections alive between requests; without a timeout an idle
    #: keep-alive client would park its handler thread for good. On
    #: timeout, ``handle_one_request`` closes the connection. (The drain
    #: does not wait for it: ``server_close`` closes idle connections.)
    timeout = 10.0

    def handle(self) -> None:
        """The base loop, with each wait for a kept-alive connection's next
        request line registered with the server, so a drain can end it."""
        self.close_connection = True
        self._parked = False
        self.handle_one_request()
        while not self.close_connection:
            self._parked = self.server.park(self)  # type: ignore[attr-defined]
            if not self._parked:
                break
            try:
                self.handle_one_request()
            finally:
                self.server.unpark(self)  # type: ignore[attr-defined]

    def parse_request(self) -> bool:
        # The request line is in: from here on the request is in flight,
        # unless the drain closed the connection as it arrived.
        if self._parked:
            self._parked = False
            if not self.server.unpark(self):  # type: ignore[attr-defined]
                self.close_connection = True
                return False
        return super().parse_request()

    # -- plumbing ------------------------------------------------------------

    @property
    def state(self) -> ServerState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, payload: Dict[str, Any], status: int = 200) -> None:
        self._send(json.dumps(payload, sort_keys=True).encode("utf-8"), status)

    def _send(self, body: bytes, status: int = 200) -> None:
        """One JSON response, status line to body in a single write:
        ``end_headers()`` would send the buffered headers on their own."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        head = b"".join(getattr(self, "_headers_buffer", ()))
        self._headers_buffer = []
        self.wfile.write(head + b"\r\n" + body if head else body)

    def _body(self) -> bytes:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry another request.
            self.close_connection = True
            raise BadRequestError(
                f"Content-Length {declared!r} rejected (0 to {MAX_BODY_BYTES} bytes)"
            )
        return self.rfile.read(length) if length else b""

    def _json_body(self) -> Dict[str, Any]:
        raw = self._body()
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise BadRequestError(f"malformed JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise BadRequestError("JSON body must be an object")
        return payload

    def _route(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = {k: v for k, v in parse_qs(split.query).items()}
        try:
            handled = self._dispatch(method, parts, query)
        except ServeError as error:
            self._send_json({"error": str(error)}, status=error.status)
            return
        except BrokenPipeError:  # pragma: no cover - client went away
            return
        except Exception as error:  # pragma: no cover - defensive 500
            _logger.exception("unhandled error serving %s %s", method, self.path)
            self._send_json({"error": f"internal error: {error!r}"}, status=500)
            return
        if not handled:
            self._send_json({"error": f"no route for {method} {split.path}"}, 404)

    # -- routing -------------------------------------------------------------

    def _dispatch(self, method: str, parts, query) -> bool:
        state = self.state
        if method == "GET" and parts == ["health"]:
            self._send_json({"status": "ok", "uptime_seconds": state.stats()["uptime_seconds"]})
            return True
        if method == "GET" and parts == ["stats"]:
            self._send_json(state.stats())
            return True
        if method == "GET" and parts == ["sessions"]:
            self._send_json({"sessions": state.sessions()})
            return True
        if method == "POST" and parts == ["sessions"]:
            self._create_session(query)
            return True
        if method == "POST" and parts == ["shutdown"]:
            self._send_json({"status": "shutting down"})
            self.server.trigger_shutdown()  # type: ignore[attr-defined]
            return True
        if len(parts) >= 2 and parts[0] == "sessions":
            sid = parts[1]
            rest = parts[2:]
            if method == "GET" and not rest:
                self._send_json(state.session(sid).info())
                return True
            if method == "DELETE" and not rest:
                state.delete_session(sid)
                self._send_json({"status": "deleted", "session": sid})
                return True
            if method == "POST" and rest == ["check"]:
                report, meta = state.check(sid)
                self._send(encode_reply(report, meta))
                return True
            if method == "POST" and rest == ["check-window"]:
                body = self._json_body()
                windows = body.get("windows")
                if not isinstance(windows, list):
                    raise BadRequestError(
                        'check-window body must be {"windows": [[x1,y1,x2,y2], ...]}'
                    )
                report, meta = state.check_window(sid, windows)
                self._send(encode_reply(report, meta))
                return True
            if method == "POST" and rest == ["recheck"]:
                self._recheck(sid, query)
                return True
            if method == "GET" and rest == ["violations"]:
                self._violations(sid, query)
                return True
        return False

    # -- endpoint bodies -----------------------------------------------------

    @staticmethod
    def _first(query: Dict[str, Any], name: str) -> Optional[str]:
        values = query.get(name)
        return values[0] if values else None

    @staticmethod
    def _known(query, accepted: Tuple[str, ...]) -> None:
        """Refuse a query name the endpoint does not read: a misspelt option
        must not run the request without it."""
        unknown = sorted(set(query) - set(accepted))
        if unknown:
            raise BadRequestError(
                f"unknown query parameter {', '.join(map(repr, unknown))}; "
                f"this endpoint accepts {', '.join(accepted)}"
            )

    def _upload(self, query, accepted: Tuple[str, ...]) -> bytes:
        """The GDSII bytes of a ``POST /sessions`` or ``.../recheck`` body,
        whose query may name only ``accepted``.

        A ``deck`` in the query and a JSON body are refused without being
        looked at, so the reply says nothing about the server's files."""
        raw = self._body()  # read even when refused: the connection stays usable
        if "deck" in query:
            raise BadRequestError(
                f"this daemon checks against its own deck ({self.state.deck_name}); "
                "a request cannot name one: drop deck="
            )
        self._known(query, accepted)
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        if not raw or content_type == "application/json":
            raise BadRequestError(
                "send the GDSII stream bytes as the body "
                "(Content-Type: application/octet-stream) and the options in "
                "the query string (top, default_severity, severities, verify)"
            )
        return raw

    def _verify(self, query) -> bool:
        raw = self._first(query, "verify")
        if raw is None or raw.lower() in ("0", "false"):
            return False
        if raw.lower() in ("1", "true"):
            return True
        raise BadRequestError(f"verify must be 1, true, 0 or false, got {raw!r}")

    def _severities(self, query) -> Optional[Dict[str, str]]:
        raw = self._first(query, "severities")
        if raw is None:
            return None
        try:
            severities = json.loads(raw)
        except ValueError:
            severities = None
        if not isinstance(severities, dict) or not all(
            isinstance(value, str) for value in severities.values()
        ):
            raise BadRequestError(
                f"severities must be a JSON object of rule name to severity, got {raw!r}"
            )
        return severities

    def _create_session(self, query) -> None:
        session, created = self.state.create_session(
            data=self._upload(query, CREATE_QUERY),
            top=self._first(query, "top"),
            severities=self._severities(query),
            default_severity=self._first(query, "default_severity"),
        )
        info = session.info()
        info["created"] = created
        self._send_json(info, status=201 if created else 200)

    def _recheck(self, sid: str, query) -> None:
        report, meta = self.state.recheck(
            sid,
            data=self._upload(query, RECHECK_QUERY),
            top=self._first(query, "top"),
            verify=self._verify(query),
        )
        self._send(encode_reply(report, meta))

    def _violations(self, sid: str, query) -> None:
        self._known(query, VIOLATIONS_QUERY)
        bbox = None
        raw_bbox = self._first(query, "bbox")
        if raw_bbox:
            try:
                bbox = [int(c) for c in raw_bbox.split(",")]
            except ValueError:
                raise BadRequestError(
                    f"bbox must be x1,y1,x2,y2 integers, got {raw_bbox!r}"
                ) from None
        rules = None
        if "rule" in query:
            rules = [name for value in query["rule"] for name in value.split(",")]
        self._send(
            self.state.violations_body(
                sid,
                severity=self._first(query, "severity"),
                rules=rules,
                bbox=bbox,
            )
        )

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")


# ---------------------------------------------------------------------------
# Running servers
# ---------------------------------------------------------------------------


class ServeHandle:
    """A running in-process server (tests, benchmarks): ``close()`` drains."""

    def __init__(self, server: DrcHTTPServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread
        self.state = server.state

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=30)
        self.server.server_close()
        self.state.close()

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def start_server(
    state: ServerState, host: str = "127.0.0.1", port: int = 0
) -> ServeHandle:
    """Start a server on a background thread; ``port=0`` picks a free port."""
    server = DrcHTTPServer((host, port), state)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-serve",
        daemon=True,
    )
    thread.start()
    return ServeHandle(server, thread)


def serve(
    state: ServerState,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    announce=print,
) -> int:
    """Run the daemon in the foreground until SIGTERM/SIGINT or /shutdown.

    Shutdown is graceful in all three cases: the accept loop stops first,
    in-flight requests drain (handler threads are joined), and only then is
    the engine closed.
    """
    server = DrcHTTPServer((host, port), state)
    bound_host, bound_port = server.server_address[:2]
    announce(
        f"repro serve: listening on http://{bound_host}:{bound_port}",
        flush=True,
    )

    installed = {}
    if threading.current_thread() is threading.main_thread():

        def _terminate(signum, frame):
            raise SystemExit(0)

        for signum in (signal.SIGTERM, signal.SIGINT):
            installed[signum] = signal.getsignal(signum)
            signal.signal(signum, _terminate)
    try:
        server.serve_forever(poll_interval=0.1)
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        for signum, old in installed.items():
            signal.signal(signum, old)
        announce("repro serve: draining in-flight requests", flush=True)
        server.server_close()  # joins handler threads (daemon_threads=False)
        state.close()
        announce("repro serve: engine closed, bye", flush=True)
    return 0

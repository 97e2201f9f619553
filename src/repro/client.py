"""Thin HTTP client for a ``repro serve`` daemon (stdlib ``http.client`` only).

The CLI's ``repro check --server URL`` path, the benchmarks, and the tests
all talk to the daemon through :class:`ServeClient`. A layout travels as
its GDSII bytes and is checked against the deck the daemon was started
with; no request names a file on the server. Responses are plain
JSON dicts; the ``report`` member of a check response is the exact payload
of :meth:`~repro.core.results.CheckReport.to_json`, so
:func:`report_json_to_csv` / re-dumping with ``json.dumps(obj, indent=2,
sort_keys=True)`` reproduce the local CLI's output byte for byte. The
daemon writes each body from its tables' memoised row text
(:func:`repro.server.state.encode_reply`), byte-identical to dumping the
dicts, so nothing here depends on how it was encoded.

Each calling thread keeps one HTTP/1.1 connection to the daemon and sends
every request on it: no TCP connect and no new daemon handler thread per
request, and each response arrives in a single send (the daemon sets
``TCP_NODELAY``). The daemon closes a connection that stays idle past its
handler timeout, or when it drains; a request on such a reused connection
that got no response byte back is sent once more on a fresh one (the
daemon never read it, so nothing is replayed). :meth:`ServeClient.close`,
or leaving a ``with`` block, closes every thread's connection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import ReproError
from .reporting import (
    apply_waivers_payload,
    csv_from_payload,
    summary_from_payload,
)

__all__ = [
    "ClientError",
    "ServeClient",
    "apply_waivers_payload",
    "report_json_summary",
    "report_json_to_csv",
]


class ClientError(ReproError):
    """A failed request to the serve daemon (carries the HTTP status)."""

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class _Response(http.client.HTTPResponse):
    """A response whose ``begin`` raises ``ConnectionError`` only while no
    byte of it has arrived: the request may then be sent again."""

    def begin(self) -> None:
        if not self.fp.peek(1):
            raise http.client.RemoteDisconnected("connection closed before a response")
        try:
            super().begin()
        except ConnectionError as error:
            raise http.client.HTTPException(f"response cut short: {error}") from None


class ServeClient:
    """JSON-over-HTTP client of one daemon: one kept-alive connection per
    calling thread (see the module docstring)."""

    def __init__(self, url: str, *, timeout: float = 300.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        split = urllib.parse.urlsplit(self.url)
        self._connection_class = (
            http.client.HTTPSConnection if split.scheme == "https" else http.client.HTTPConnection
        )
        self._netloc = split.netloc
        self._prefix = split.path
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: List[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every thread's connection; a later request opens a new one."""
        with self._lock:
            connections, self._open = self._open, []
            self._local = threading.local()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        with self._lock:
            local = self._local
            connection = getattr(local, "connection", None)
            if connection is None:
                connection = self._connection_class(self._netloc, timeout=self.timeout)
                connection.response_class = _Response
                local.connection = connection
                self._open.append(connection)
        return connection

    def _exchange(self, method: str, target: str, body, headers) -> Tuple[int, bytes]:
        """``(status, body)`` of one request on this thread's connection."""
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body, headers)
                response = connection.getresponse()
            except ConnectionError:
                # A send that failed or a response that never began: the
                # daemon closed the idle connection before it read this request.
                if not reused:
                    raise
                connection.close()
                connection.request(method, target, body, headers)
                response = connection.getresponse()
            return response.status, response.read()
        except BaseException:
            connection.close()
            raise

    def _request(
        self,
        method: str,
        path: str,
        *,
        json_body: Optional[Dict[str, Any]] = None,
        data: Optional[bytes] = None,
        query: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        target = self._prefix + path
        if query:
            pairs = []
            for key, value in query.items():
                if value is None:
                    continue
                if isinstance(value, (list, tuple)):
                    pairs.extend((key, str(v)) for v in value)
                else:
                    pairs.append((key, str(value)))
            if pairs:
                target += "?" + urllib.parse.urlencode(pairs)
        headers = {"Accept": "application/json"}
        body = None
        if data is not None:
            body = data
            headers["Content-Type"] = "application/octet-stream"
        elif json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            status, raw = self._exchange(method, target, body, headers)
        except (http.client.HTTPException, OSError) as error:
            raise ClientError(f"cannot reach {self.url}: {error}") from None
        if not 200 <= status < 300:
            try:
                detail = json.loads(raw.decode("utf-8")).get("error", "")
            except Exception:
                detail = ""
            raise ClientError(
                detail or f"{method} {path} failed: HTTP {status}",
                status=status,
            )
        return json.loads(raw.decode("utf-8"))

    # -- endpoints -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def wait_ready(
        self,
        timeout: float = 30.0,
        *,
        interval: float = 0.05,
        max_interval: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll ``/health`` until the daemon answers; returns its payload.

        The canonical "daemon just forked, is it up yet?" helper — the CI
        smoke jobs and the serve benchmarks all start a daemon and need to
        block until the socket accepts. Polls every ``interval`` seconds,
        doubling up to ``max_interval`` (by default no back-off: a daemon
        comes up within a second, and a doubled wait was up to 0.8 s of
        start-up jitter for every caller) and raises
        :class:`ClientError` if the daemon is still unreachable after
        ``timeout`` seconds. Only connection failures are retried; an HTTP
        error (the daemon is up but unhappy) propagates immediately.
        """
        deadline = time.monotonic() + timeout
        delay = max(0.001, interval)
        last_error: Optional[ClientError] = None
        while True:
            try:
                return self.health()
            except ClientError as error:
                if error.status:  # reachable but failing: not a startup race
                    raise
                last_error = error
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClientError(
                    f"daemon at {self.url} not ready after {timeout:g}s: "
                    f"{last_error}"
                )
            time.sleep(min(delay, remaining))
            delay = min(delay * 2, max_interval)

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def sessions(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/sessions")["sessions"]

    def create_session(
        self,
        *,
        data: bytes,
        top: Optional[str] = None,
        severities: Optional[Dict[str, str]] = None,
        default_severity: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Upload a layout's GDSII stream bytes; returns the session info dict.

        The daemon checks it against the deck it was started with.
        ``severities`` (rule name to severity) and ``default_severity``
        override that deck's severities for this session; they travel in
        the query string, ``severities`` as one JSON object.
        """
        return self._request(
            "POST",
            "/sessions",
            data=data,
            query={
                "top": top,
                "severities": None if severities is None else json.dumps(severities),
                "default_severity": default_severity,
            },
        )

    def session(self, sid: str) -> Dict[str, Any]:
        return self._request("GET", f"/sessions/{sid}")

    def delete_session(self, sid: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/sessions/{sid}")

    def check(self, sid: str) -> Dict[str, Any]:
        """Run the session's deck; ``{"report": ..., "meta": ...}``."""
        return self._request("POST", f"/sessions/{sid}/check")

    def check_window(
        self, sid: str, windows: Sequence[Sequence[int]]
    ) -> Dict[str, Any]:
        return self._request(
            "POST",
            f"/sessions/{sid}/check-window",
            json_body={"windows": [list(w) for w in windows]},
        )

    def recheck(
        self,
        sid: str,
        *,
        data: bytes,
        top: Optional[str] = None,
        verify: bool = False,
    ) -> Dict[str, Any]:
        """Upload the session's next layout version; the reply is the
        spliced report, as :meth:`check` returns it."""
        return self._request(
            "POST",
            f"/sessions/{sid}/recheck",
            data=data,
            query={"top": top, "verify": "1" if verify else None},
        )

    def violations(
        self,
        sid: str,
        *,
        severity: Optional[str] = None,
        rules: Optional[Sequence[str]] = None,
        bbox: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        query: Dict[str, Any] = {"severity": severity}
        if rules:
            query["rule"] = list(rules)
        if bbox is not None:
            query["bbox"] = ",".join(str(c) for c in bbox)
        return self._request("GET", f"/sessions/{sid}/violations", query=query)

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")


# ---------------------------------------------------------------------------
# Rendering served reports without Rule objects
# ---------------------------------------------------------------------------


def report_json_to_csv(
    payload: Dict[str, Any], *, expand_instances: bool = False
) -> str:
    """CSV markers from a ``to_json`` report payload.

    Byte-identical to :meth:`CheckReport.to_csv` of the same report by
    construction: both delegate to
    :func:`repro.reporting.csv_from_payload`, and the serialized results
    preserve deck order and the canonical violation sort, so no Rule
    objects are needed to reproduce the dump.
    """
    return csv_from_payload(payload, expand_instances=expand_instances)


def report_json_summary(payload: Dict[str, Any]) -> str:
    """Human summary of a ``to_json`` report payload (CLI default format).

    Same delegation story as :func:`report_json_to_csv` — one
    implementation (:func:`repro.reporting.summary_from_payload`) renders
    both local and served summaries.
    """
    return summary_from_payload(payload)

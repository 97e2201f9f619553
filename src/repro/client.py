"""Thin HTTP client for a ``repro serve`` daemon (stdlib ``urllib`` only).

The CLI's ``repro check --server URL`` path, the benchmarks, and the tests
all talk to the daemon through :class:`ServeClient`. Responses are plain
JSON dicts; the ``report`` member of a check response is the exact payload
of :meth:`~repro.core.results.CheckReport.to_json`, so
:func:`report_json_to_csv` / re-dumping with ``json.dumps(obj, indent=2,
sort_keys=True)`` reproduce the local CLI's output byte for byte.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional, Sequence

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


class ServeClient:
    """JSON-over-HTTP client of one daemon."""

    def __init__(self, url: str, *, timeout: float = 300.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        *,
        json_body: Optional[Dict[str, Any]] = None,
        data: Optional[bytes] = None,
        query: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        url = self.url + path
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
                url += "?" + urllib.parse.urlencode(pairs)
        headers = {"Accept": "application/json"}
        body = None
        if data is not None:
            body = data
            headers["Content-Type"] = "application/octet-stream"
        elif json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=body, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                detail = json.loads(error.read().decode("utf-8")).get("error", "")
            except Exception:
                detail = ""
            raise ClientError(
                detail or f"{method} {path} failed: HTTP {error.code}",
                status=error.code,
            ) from None
        except (urllib.error.URLError, OSError) as error:
            raise ClientError(f"cannot reach {self.url}: {error}") from None
        return payload

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
        path: Optional[str] = None,
        data: Optional[bytes] = None,
        top: Optional[str] = None,
        deck: Optional[str] = None,
        severities: Optional[Dict[str, str]] = None,
        default_severity: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Load a layout into the daemon; returns the session info dict.

        ``data`` uploads raw GDSII stream bytes; ``path`` names a file the
        *server* can read (handy when client and daemon share a machine).
        Raw uploads carry their options in the query string, which has no
        encoding for the per-rule ``severities`` mapping — combining it
        with ``data`` raises rather than silently dropping it.
        """
        if data is not None:
            if severities:
                raise ValueError(
                    "severities cannot be combined with a raw GDS upload "
                    "(query-string options only); use path= (JSON body) to "
                    "set per-rule severities"
                )
            return self._request(
                "POST",
                "/sessions",
                data=data,
                query={"top": top, "deck": deck, "default_severity": default_severity},
            )
        body: Dict[str, Any] = {"path": path}
        if top is not None:
            body["top"] = top
        if deck is not None:
            body["deck"] = deck
        if severities is not None:
            body["severities"] = severities
        if default_severity is not None:
            body["default_severity"] = default_severity
        return self._request("POST", "/sessions", json_body=body)

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
        path: Optional[str] = None,
        data: Optional[bytes] = None,
        top: Optional[str] = None,
        verify: bool = False,
    ) -> Dict[str, Any]:
        query = {"top": top, "verify": "1" if verify else None}
        if data is not None:
            return self._request(
                "POST", f"/sessions/{sid}/recheck", data=data, query=query
            )
        body: Dict[str, Any] = {"path": path, "verify": verify}
        if top is not None:
            body["top"] = top
        return self._request("POST", f"/sessions/{sid}/recheck", json_body=body)

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

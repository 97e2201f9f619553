"""DRC-as-a-service: a resident daemon amortizing all warm engine state.

:class:`ServerState` is the transport-free service core (sessions,
single-flight coalescing, the report LRU, counters);
:mod:`repro.server.http` wraps it in a stdlib JSON-over-HTTP server.
``repro serve`` on the command line and :class:`repro.client.ServeClient`
are the two ends of the wire.
"""

from .http import DrcHTTPServer, ServeHandle, serve, start_server
from .state import (
    BadRequestError,
    ServeError,
    ServerState,
    Session,
    SingleFlight,
    UnknownSessionError,
)

__all__ = [
    "BadRequestError",
    "DrcHTTPServer",
    "ServeError",
    "ServeHandle",
    "ServerState",
    "Session",
    "SingleFlight",
    "UnknownSessionError",
    "serve",
    "start_server",
]

"""A calibrated cost model for multiprocess work routing.

The multiprocess backend pays a fixed dispatch price per pool task:
pickling the payload, a queue round trip, and the result pickle on the way
back. On large rules that price is noise; on small ones it exceeds the
work itself, which is how jobs=4 managed to *lose* to jobs=1. This module
learns both sides of that trade from measurements the engine already makes
and answers two questions per row-sharded rule:

* **route** — is the estimated compute worth fanning out at all, or should
  the parent run it inline? The break-even test compares the parallel
  saving ``est * (1 - 1/jobs)`` against the dispatch bill for the ~``jobs``
  tasks a sharded batch issues, with a safety factor so borderline rules
  stay inline.
* **granularity** — when pooling does win, how many shards amortize the
  per-task dispatch cost without giving up LPT balance? Shards are sized
  so each carries at least :data:`TARGET_DISPATCH_MULTIPLE` times the
  measured dispatch overhead of compute, clamped to
  ``[jobs, jobs * SHARD_OVERSUBSCRIPTION]``.

Calibration inputs:

* ``observe_dispatch`` — a measured no-op pool round trip
  (:meth:`repro.core.workerpool.WorkerPool.dispatch_seconds`);
* ``observe_kind`` — compute seconds per weight unit (edges, corners,
  rects) for the row-sharded kinds, folded into an EWMA per kind.

An **uncalibrated model changes nothing**: with no estimate for a kind the
backend keeps the status-quo behaviour (pool it, ``scheduler.shard_count``
granularity), so the first occurrence of any kind always produces a fresh
observation and fault-injection tests keep their exact counter semantics.

With a persistent :class:`~repro.core.packstore.PackStore` configured, the
model is shared process-wide per store root and persisted as
``costmodel.json`` next to the store's ``counters.json``, so warm runs
start with learned constants. Without a store each backend gets a private
throwaway model (in-check learning only).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Dict, Optional

from ..util.logging import get_logger
from .scheduler import SHARD_OVERSUBSCRIPTION, shard_count

__all__ = [
    "BREAK_EVEN_SAFETY",
    "COSTMODEL_FILENAME",
    "CostModel",
    "DEFAULT_DISPATCH_SECONDS",
    "EWMA_ALPHA",
    "TARGET_DISPATCH_MULTIPLE",
    "model_for",
    "reset_models",
]

_logger = get_logger("costmodel")

#: Sidecar file name, written next to the pack store's ``counters.json``.
COSTMODEL_FILENAME = "costmodel.json"

#: Serialization version; bumping it discards persisted calibrations.
FORMAT_VERSION = 1

#: Assumed per-task dispatch cost before any measurement exists. Roughly a
#: fork-start pool round trip on commodity hardware; intentionally on the
#: high side so an uncalibrated model never routes real work inline.
DEFAULT_DISPATCH_SECONDS = 1e-3

#: The estimated parallel saving must exceed the dispatch bill by this
#: factor before work leaves the parent — borderline rules stay inline.
BREAK_EVEN_SAFETY = 2.0

#: Each shard should carry at least this multiple of the dispatch overhead
#: in compute, so the fixed per-task price stays a small fraction.
TARGET_DISPATCH_MULTIPLE = 25.0

#: Smoothing for the per-kind rate EWMAs (high = adapt fast; rates move
#: with the most recent deck, which is what a warm service wants).
EWMA_ALPHA = 0.5


class CostModel:
    """Learned dispatch overhead + per-kind rates.

    Thread-safety: with a persistent store the model is shared by every
    concurrent request of a serve daemon, so calibration writes (the
    read-modify-write EWMA folds and the ``save`` snapshot) take an
    instance lock. The estimate readers stay
    lock-free on purpose — each is a single dict read (atomic under the
    GIL) and a stale-by-one-sample estimate only shades a routing decision,
    never correctness.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        #: Measured seconds for one no-op pool round trip (None = unmeasured).
        self.dispatch_seconds: Optional[float] = None
        #: Rule kind -> EWMA of compute seconds per weight unit.
        self.rates: Dict[str, float] = {}

    # -- calibration --------------------------------------------------------

    def observe_dispatch(self, seconds: float) -> None:
        if seconds > 0:
            with self._lock:
                self.dispatch_seconds = (
                    seconds
                    if self.dispatch_seconds is None
                    else min(self.dispatch_seconds, seconds)
                )

    def observe_kind(self, kind: str, weight: float, seconds: float) -> None:
        """Fold one (weight units, compute seconds) sample into the kind rate."""
        if weight <= 0 or seconds <= 0:
            return
        rate = seconds / weight
        with self._lock:
            previous = self.rates.get(kind)
            self.rates[kind] = (
                rate
                if previous is None
                else (1.0 - EWMA_ALPHA) * previous + EWMA_ALPHA * rate
            )

    # -- estimates ----------------------------------------------------------

    def overhead(self) -> float:
        """Per-task dispatch seconds (measured, or the conservative default)."""
        if self.dispatch_seconds is not None and self.dispatch_seconds > 0:
            return self.dispatch_seconds
        return DEFAULT_DISPATCH_SECONDS

    def estimate_kind(self, kind: str, weight: float) -> Optional[float]:
        rate = self.rates.get(kind)
        if rate is None or weight <= 0:
            return None
        return rate * weight

    # -- routing ------------------------------------------------------------

    def worth_pooling(self, est_seconds: float, jobs: int) -> bool:
        """Does fanning ``est_seconds`` of compute out to ``jobs`` pay?

        The most the pool can save is ``est * (1 - 1/jobs)``; the bill is
        one dispatch per worker (a sharded batch issues ~``jobs`` tasks).
        Require the saving to beat the bill by :data:`BREAK_EVEN_SAFETY`.
        """
        if jobs <= 1:
            return False
        saving = est_seconds * (1.0 - 1.0 / jobs)
        return saving > BREAK_EVEN_SAFETY * self.overhead() * jobs

    def plan_shards(self, est_seconds: float, num_items: int, jobs: int) -> int:
        """Shard count that amortizes dispatch without losing LPT balance."""
        target = self.overhead() * TARGET_DISPATCH_MULTIPLE
        if target <= 0:
            return shard_count(num_items, jobs)
        want = int(est_seconds / target)
        want = max(want, jobs)
        want = min(want, jobs * SHARD_OVERSUBSCRIPTION)
        return max(1, min(num_items, want))

    # -- persistence ---------------------------------------------------------

    def save(self) -> None:
        """Write the calibration sidecar atomically (best-effort)."""
        if self.path is None:
            return
        with self._lock:
            # Snapshot under the lock so a concurrent observe_* fold cannot
            # mutate the dict mid-serialization.
            payload = {
                "version": FORMAT_VERSION,
                "dispatch_seconds": self.dispatch_seconds,
                "rates": dict(self.rates),
            }
        root = os.path.dirname(self.path) or "."
        try:
            os.makedirs(root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".costmodel.", suffix=".tmp", dir=root
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError:
            _logger.warning("could not persist cost model to %s", self.path)

    @classmethod
    def load(cls, path: str) -> "CostModel":
        """Read a calibration sidecar; anything malformed yields a fresh model.

        Keys this version does not read (older files carry a per-rule
        ``rules`` map) are ignored, so a warm calibration survives.
        """
        model = cls(path=path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return model
        if not isinstance(payload, dict) or payload.get("version") != FORMAT_VERSION:
            return model
        dispatch = payload.get("dispatch_seconds")
        if isinstance(dispatch, (int, float)) and dispatch > 0:
            model.dispatch_seconds = float(dispatch)
        rates = payload.get("rates")
        if isinstance(rates, dict):
            for key, value in rates.items():
                if isinstance(value, (int, float)) and value > 0:
                    model.rates[str(key)] = float(value)
        return model


# ---------------------------------------------------------------------------
# Per-store model registry
# ---------------------------------------------------------------------------

_MODELS: Dict[str, CostModel] = {}
_MODELS_LOCK = threading.Lock()


def model_for(store) -> CostModel:
    """The cost model for a backend: shared + persistent per store root.

    With a :class:`~repro.core.packstore.PackStore` configured, every
    backend pointed at the same root shares one model instance (loaded from
    ``costmodel.json`` on first use), so calibration survives across checks
    *and* across processes. Without a store the model is private to the
    caller — in-check learning only, so independent runs (and independent
    tests) cannot contaminate each other's routing decisions.
    """
    if store is None:
        return CostModel()
    root = store.root
    with _MODELS_LOCK:
        model = _MODELS.get(root)
        if model is None:
            model = CostModel.load(os.path.join(root, COSTMODEL_FILENAME))
            _MODELS[root] = model
        return model


def reset_models() -> None:
    """Drop every cached per-store model (tests only)."""
    with _MODELS_LOCK:
        _MODELS.clear()

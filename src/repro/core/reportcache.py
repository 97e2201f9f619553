"""The one holder of finished DRC reports.

A finished :class:`~repro.core.results.CheckReport` is a pure function of
(rule deck, layout geometry), so it is computed once and reused — the
paper's argument for a cell's check result across its instances (§IV-C).
The key combines a digest of the rule deck with the layout's per-layer
geometry digests (:func:`report_key`); ``Engine.check``, ``recheck``,
``check-window`` and the serve daemon all ask :class:`ReportCache` for it
before computing and save full-extent reports into it after.

Reports are JSON files under ``<store-root>/reports/`` in the schema
:meth:`CheckReport.to_json` emits, written atomically. An entry only
deserialises against the live deck (violations carry no predicates; the
rule objects come from the caller and are matched by name), so a hit
requires the deck digest to match, which guarantees the names align.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
import uuid
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from .markers import MarkerError, report_from_dict
from .packstore import PackStore, remove_orphans, store_key
from .results import CheckReport
from .rules import Rule

__all__ = ["ReportCache", "deck_digest", "private_deck", "report_key"]

#: Reports the memory front keeps unless told otherwise.
DEFAULT_CAPACITY = 64

#: Prefix of :func:`private_deck` tokens and of every key made from one:
#: such keys live in the memory front only and never reach disk.
PRIVATE = "private-"


def deck_digest(rules: Sequence[Rule]) -> Optional[str]:
    """Content digest of a rule deck, or None if it cannot be fingerprinted.

    Structural fields hash by value; ``ensures`` predicates hash by their
    pickled bytes. A predicate that cannot be pickled (a lambda, a closure)
    has no stable identity, so the whole deck becomes uncacheable — honest
    misses instead of stale hits.
    """
    hasher = hashlib.sha256()
    for rule in rules:
        fields = (rule.name, rule.kind.value, rule.layer, rule.other_layer)
        hasher.update(repr(fields + (rule.value, rule.severity)).encode("utf-8"))
        if rule.predicate is not None:
            try:
                blob = pickle.dumps(rule.predicate)
            except Exception:
                return None
            hasher.update(hashlib.sha256(blob).digest())
        hasher.update(b"\x1f")
    return hasher.hexdigest()


def private_deck() -> str:
    """A token in place of the digest a deck does not have: its holder (a
    serve session) keys its own reports by it, nobody else can."""
    return PRIVATE + uuid.uuid4().hex


def report_key(deck: Optional[str], layer_digests: Dict[int, str]) -> Optional[str]:
    """Store key of one (deck digest or token, layout-version) pair; None
    (nothing to load or save under) for a deck that has neither."""
    if deck is None:
        return None
    key = store_key("report", deck, tuple(sorted(layer_digests.items())))
    return PRIVATE + key if deck.startswith(PRIVATE) else key


class ReportCache:
    """A lock-guarded LRU of report objects in front of an optional disk back.

    ``store`` places the disk back (``reports/`` under its cache directory);
    without one the cache is memory-only. ``capacity`` bounds the memory
    front; 0 keeps nothing there, so every load reads the disk back or
    misses. ``hits``/``misses`` count every :meth:`load`.
    """

    def __init__(
        self, store: Optional[PackStore] = None, *, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.root = None if store is None else os.path.join(store.root, "reports")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Guards the memory front and the counters; disk I/O runs outside it.
        self._lock = threading.Lock()
        self._front: "OrderedDict[str, CheckReport]" = OrderedDict()

    def _path(self, key: str) -> Optional[str]:
        """Where ``key`` lives on disk; None if it (or the cache) is memory-only."""
        if self.root is None or key.startswith(PRIVATE):
            return None
        return os.path.join(self.root, f"{key}.json")

    def _remember(self, key: str, report: CheckReport) -> None:
        """Make ``key`` the most recent memory entry (caller holds the lock)."""
        if not self.capacity:
            return
        self._front[key] = report
        self._front.move_to_end(key)
        while len(self._front) > self.capacity:
            self._front.popitem(last=False)

    def memory_entries(self) -> int:
        """How many reports the memory front holds right now."""
        with self._lock:
            return len(self._front)

    def peek(self, key: str) -> Optional[CheckReport]:
        """The memory front's entry, uncounted and unpromoted (status pages)."""
        with self._lock:
            return self._front.get(key)

    def load(
        self, key: str, rules: Sequence[Rule], *, layout_name: Optional[str] = None
    ) -> Optional[CheckReport]:
        """The stored report, or None.

        ``rules`` must be the deck the key was computed from (the deck
        digest inside the key enforces it): a disk entry comes back in deck
        order with these Rule objects attached, and a corrupt, truncated or
        mismatching one is a miss. Keys do not cover the layout's name;
        ``layout_name`` relabels a hit stored under another.
        """
        with self._lock:
            report = self._front.get(key)
        path = self._path(key)
        if report is None and path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    report = report_from_dict(json.load(fh), rules)
            except (OSError, ValueError, MarkerError):
                report = None
        with self._lock:
            if report is None:
                self.misses += 1
                return None
            self.hits += 1
            self._remember(key, report)
        if layout_name not in (None, report.layout_name):
            report = dataclasses.replace(report, layout_name=layout_name)
        return report

    def save(self, key: str, report: CheckReport) -> None:
        """Keep one report; on disk atomically (concurrent writers race
        benignly) and best-effort: a failed write never fails the check."""
        with self._lock:
            self._remember(key, report)
        path = self._path(key)
        if path is None:
            return
        data = report.to_json(indent=None)
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)

    def entries(self) -> List[tuple]:
        """``(key, nbytes)`` of every report on disk (empty if no directory)."""
        found = []
        try:
            names = os.listdir(self.root) if self.root is not None else []
        except OSError:
            return found
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                found.append((name[: -len(".json")], os.path.getsize(path)))
            except OSError:
                continue
        return found

    def total_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self.entries())

    def clear(self) -> int:
        """Forget every report; returns how many disk entries were removed.

        Also removes the ``*.tmp`` files of writers killed between
        ``mkstemp`` and ``os.replace`` (not entries, so not counted). A
        live writer whose temp file vanishes fails its ``os.replace`` and
        swallows the ``OSError`` like any failed write.
        """
        with self._lock:
            self._front.clear()
        removed = 0
        for key, _ in self.entries():
            try:
                os.unlink(self._path(key))
                removed += 1
            except OSError:
                continue
        remove_orphans(self.root)
        return removed

"""Deterministic fault injection for the pack store.

The pack store drops a corrupt entry, rebuilds it cold and rewrites it — but
corrupt entries do not happen on a healthy CI box. This module makes that
failure reproducible on demand so the recovery path is *tested*, not
trusted.

A fault plan is parsed from a spec string (``EngineOptions.faults`` or the
``REPRO_FAULTS`` environment variable)::

    site[:key=value[,key=value...]][;site...]

    REPRO_FAULTS="packstore_corrupt:times=2"
    REPRO_FAULTS="packstore_corrupt:p=0.5,seed=7"

Sites
-----
``packstore_corrupt``
    Consulted by :meth:`repro.core.packstore.PackStore._read` before an
    *existing* entry is parsed; firing physically corrupts the entry's
    header on disk, so the store's real corruption handling (drop + cold
    rebuild + rewrite) runs, not a simulation of it.

Parameters
----------
``times=N``  fire on the first N matching opportunities (default 1);
``skip=N``   let the first N opportunities pass unfaulted;
``p=F,seed=S``  fire each opportunity with probability F drawn from a
  ``random.Random`` seeded at parse time — seeded, repeatable, and never
  wall-clock-dependent (``times`` still bounds the total).

Installation is idempotent by spec: installing the same string keeps the
live plan (and its consumed budgets), so every check of one engine draws on
one set of budgets.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
from typing import List, Optional

__all__ = [
    "FAULTS_ENV",
    "FaultDirective",
    "FaultPlan",
    "FaultSpecError",
    "PACKSTORE_CORRUPT",
    "SITES",
    "clear",
    "install",
    "resolve_spec",
    "should_fire",
]

#: Environment variable carrying a fault spec (``EngineOptions.faults`` wins).
FAULTS_ENV = "REPRO_FAULTS"

PACKSTORE_CORRUPT = "packstore_corrupt"

#: Every injection site a directive may name.
SITES = (PACKSTORE_CORRUPT,)


class FaultSpecError(ValueError):
    """A fault spec string that cannot be parsed."""


@dataclasses.dataclass
class FaultDirective:
    """One ``site:params`` clause of a fault spec."""

    site: str
    times: Optional[int] = 1
    skip: int = 0
    p: Optional[float] = None
    seed: int = 0
    seen: int = 0
    fired: int = 0

    def __post_init__(self) -> None:
        # One RNG per directive, seeded at parse time: the draw sequence
        # depends only on (site, seed) and the consult order, never on the
        # clock or the PID.
        self._rng = random.Random(f"{self.site}:{self.seed}")

    def consult(self) -> bool:
        """Record one opportunity at this directive's site; True = fire."""
        self.seen += 1
        if self.seen <= self.skip:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.p is not None and self._rng.random() >= self.p:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A parsed fault spec with per-directive firing budgets."""

    def __init__(self, spec: str, directives: List[FaultDirective]) -> None:
        self.spec = spec
        self.directives = directives

    @classmethod
    def parse(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """Parse a spec string; None/empty means no faults. Raises
        :class:`FaultSpecError` (a ``ValueError``) on malformed input."""
        if not spec:
            return None
        directives: List[FaultDirective] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            site, _, params = clause.partition(":")
            site = site.strip()
            if site not in SITES:
                raise FaultSpecError(
                    f"unknown fault site {site!r}; expected one of {SITES}"
                )
            directive = FaultDirective(site=site)
            if params.strip():
                for item in params.split(","):
                    name, sep, value = item.partition("=")
                    name, value = name.strip(), value.strip()
                    if not sep or not value:
                        raise FaultSpecError(
                            f"malformed fault parameter {item.strip()!r} "
                            f"in {clause!r}; expected key=value"
                        )
                    try:
                        if name == "times":
                            directive.times = int(value)
                        elif name == "skip":
                            directive.skip = int(value)
                        elif name == "seed":
                            directive.seed = int(value)
                        elif name == "p":
                            directive.p = float(value)
                            if not 0.0 <= directive.p <= 1.0:
                                raise FaultSpecError(
                                    f"fault probability must be in [0, 1], "
                                    f"got {directive.p}"
                                )
                        else:
                            raise FaultSpecError(
                                f"unknown fault parameter {name!r} in {clause!r}"
                            )
                    except (TypeError, ValueError) as error:
                        if isinstance(error, FaultSpecError):
                            raise
                        raise FaultSpecError(
                            f"bad value for fault parameter {name!r} "
                            f"in {clause!r}: {value!r}"
                        ) from None
                # Rebuild the RNG now that the seed is final.
                directive.__post_init__()
            directives.append(directive)
        if not directives:
            return None
        return cls(spec, directives)

    def should_fire(self, site: str) -> bool:
        """Consult every directive at ``site``; True if any fires."""
        fired = False
        for directive in self.directives:
            if directive.site == site and directive.consult():
                fired = True
        return fired


# ---------------------------------------------------------------------------
# Process-global installation
# ---------------------------------------------------------------------------

_active: Optional[FaultPlan] = None
_install_lock = threading.Lock()


def resolve_spec(options) -> Optional[str]:
    """The spec ``options`` selects: ``options.faults`` or ``$REPRO_FAULTS``."""
    spec = getattr(options, "faults", None)
    if spec is not None:
        return spec or None
    return os.environ.get(FAULTS_ENV) or None


def install(spec: Optional[str]) -> Optional[FaultPlan]:
    """Install the plan for ``spec`` process-globally (None clears it).

    Idempotent by spec: re-installing the currently active spec keeps the
    live plan and its consumed budgets, so a second check with the same
    options does not re-arm faults that already fired.

    The swap is locked: two concurrent plan compilations racing here must
    settle on one live plan, not interleave the (parse, publish) pair. The
    plan itself stays process-global on purpose — the spec is part of the
    engine options every concurrent request of one daemon shares, and its
    firing budgets meter *process-wide* opportunities by design.
    """
    global _active
    with _install_lock:
        if _active is not None and _active.spec == spec:
            return _active
        _active = FaultPlan.parse(spec)
        return _active


def clear() -> None:
    """Drop any installed plan (tests call this between cases)."""
    global _active
    with _install_lock:
        _active = None


def should_fire(site: str) -> bool:
    """Consult the installed plan at ``site`` (False when none)."""
    plan = _active
    if plan is None:
        return False
    return plan.should_fire(site)

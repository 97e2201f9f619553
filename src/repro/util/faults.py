"""Deterministic fault injection for the execution pipeline.

The multiprocess backend recovers from crashed, hung, and killed workers,
corrupt pack-store entries, and failed shared-memory attaches — but none of
those happen on a healthy CI box. This module makes every failure mode
reproducible on demand so the recovery paths are *tested*, not trusted.

A fault plan is parsed from a spec string (``EngineOptions.faults`` or the
``REPRO_FAULTS`` environment variable)::

    site[:key=value[,key=value...]][;site...]

    REPRO_FAULTS="worker_raise:times=1;packstore_corrupt:times=2"
    REPRO_FAULTS="worker_hang:rule=M3.S,times=1"
    REPRO_FAULTS="shm_attach_fail:p=0.5,seed=7"

Sites
-----
``worker_raise`` / ``worker_hang`` / ``worker_die``
    Consulted by the *parent* at task submission; the matching task carries
    a fault action the worker executes before the task body (raise
    :class:`InjectedFault`, sleep :data:`HANG_SECONDS`, or SIGKILL itself).
    Deciding at submission keeps the injection deterministic — submission
    order is the plan order, independent of pool scheduling.
``packstore_corrupt``
    Consulted by :meth:`repro.core.packstore.PackStore._read` before an
    *existing* entry is parsed; firing physically corrupts the entry's
    header on disk, so the store's real corruption handling (drop + cold
    rebuild + rewrite) runs, not a simulation of it.
``shm_attach_fail``
    Consulted by the worker-side shared-memory attach; firing raises
    ``OSError`` as if ``/dev/shm`` were gone.

Parameters
----------
``times=N``  fire on the first N matching opportunities (default 1);
``skip=N``   let the first N opportunities pass unfaulted;
``rule=NAME``  only fire for tasks of the named rule (worker sites);
``p=F,seed=S``  fire each opportunity with probability F drawn from a
  ``random.Random`` seeded at parse time — seeded, repeatable, and never
  wall-clock-dependent (``times`` still bounds the total).

Installation is idempotent by spec: installing the same string keeps the
live plan (and its consumed budgets), so a worker re-resolving its options
does not re-arm faults it already fired. An optional install *token*
bounds that idempotence to one check — pool workers outlive checks, and
salting their installs with a per-check epoch re-arms budgets between
checks just like fresh worker processes would. Recovery code
runs under :func:`suppressed` so a fallback can never be re-faulted into
failing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import signal
import threading
import time
from typing import Iterator, List, Optional

__all__ = [
    "ACTIONS",
    "FAULTS_ENV",
    "FaultDirective",
    "FaultPlan",
    "FaultSpecError",
    "HANG_SECONDS",
    "InjectedFault",
    "PACKSTORE_CORRUPT",
    "SHM_ATTACH_FAIL",
    "SITES",
    "WORKER_DIE",
    "WORKER_HANG",
    "WORKER_RAISE",
    "act",
    "active",
    "clear",
    "install",
    "is_suppressed",
    "resolve_spec",
    "should_fire",
    "suppressed",
]

#: Environment variable carrying a fault spec (``EngineOptions.faults`` wins).
FAULTS_ENV = "REPRO_FAULTS"

WORKER_RAISE = "worker_raise"
WORKER_HANG = "worker_hang"
WORKER_DIE = "worker_die"
PACKSTORE_CORRUPT = "packstore_corrupt"
SHM_ATTACH_FAIL = "shm_attach_fail"

#: Every injection site a directive may name.
SITES = (WORKER_RAISE, WORKER_HANG, WORKER_DIE, PACKSTORE_CORRUPT, SHM_ATTACH_FAIL)

#: Worker fault site -> the action string shipped inside the task.
ACTIONS = {WORKER_RAISE: "raise", WORKER_HANG: "hang", WORKER_DIE: "die"}

#: How long an injected hang sleeps; far beyond any sane task timeout, so
#: the parent's timeout (not the sleep ending) is what unblocks the check.
HANG_SECONDS = 600.0


class FaultSpecError(ValueError):
    """A fault spec string that cannot be parsed."""


class InjectedFault(RuntimeError):
    """The exception an injected ``worker_raise`` fault throws."""


@dataclasses.dataclass
class FaultDirective:
    """One ``site:params`` clause of a fault spec."""

    site: str
    rule: Optional[str] = None
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

    def consult(self, key: Optional[str]) -> bool:
        """Record one opportunity at this directive's site; True = fire."""
        if self.rule is not None and self.rule != key:
            return False
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
                        if name == "rule":
                            directive.rule = value
                        elif name == "times":
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

    def should_fire(self, site: str, key: Optional[str] = None) -> bool:
        """Consult every directive at ``site``; True if any fires."""
        fired = False
        for directive in self.directives:
            if directive.site == site and directive.consult(key):
                fired = True
        return fired

    def worker_fault(self, rule_name: Optional[str]) -> Optional[str]:
        """The action ("raise"/"hang"/"die") to attach to one submission."""
        for site, action in ACTIONS.items():
            if self.should_fire(site, rule_name):
                return action
        return None


# ---------------------------------------------------------------------------
# Process-global installation
# ---------------------------------------------------------------------------

_active: Optional[FaultPlan] = None
_active_token: Optional[object] = None
_install_lock = threading.Lock()

# Suppression is per *thread*: under concurrent serving one request's
# recovery ladder (which runs inline fallbacks under ``suppressed()``) must
# not mute faults that another request's check is supposed to see. A plain
# process-global depth did exactly that.
_suppress = threading.local()


def resolve_spec(options) -> Optional[str]:
    """The spec ``options`` selects: ``options.faults`` or ``$REPRO_FAULTS``."""
    spec = getattr(options, "faults", None)
    if spec is not None:
        return spec or None
    return os.environ.get(FAULTS_ENV) or None


def install(
    spec: Optional[str], token: Optional[object] = None
) -> Optional[FaultPlan]:
    """Install the plan for ``spec`` process-globally (None clears it).

    Idempotent by spec: re-installing the currently active spec keeps the
    live plan and its consumed budgets, so code re-resolving its options
    mid-check does not re-arm faults that already fired.

    ``token`` scopes that idempotence: passing a token different from the
    one the live plan was installed with re-parses the spec with fresh
    budgets even when the spec string is unchanged. Pool workers outlive
    checks, so the multiprocess backend salts worker installs with a
    per-check epoch — each check re-arms once per worker, exactly like
    fresh processes would. ``token=None`` means "don't care"
    and never invalidates a live plan.

    The swap is locked: two concurrent plan compilations racing here must
    settle on one live plan, not interleave the (parse, publish) pair. The
    plan itself stays process-global on purpose — the spec is part of the
    engine options every concurrent request of one daemon shares, and its
    firing budgets meter *process-wide* opportunities by design.
    """
    global _active, _active_token
    with _install_lock:
        if (
            _active is not None
            and _active.spec == spec
            and (token is None or token == _active_token)
        ):
            return _active
        _active = FaultPlan.parse(spec)
        _active_token = token
        return _active


def clear() -> None:
    """Drop any installed plan (tests call this between cases)."""
    global _active, _active_token
    with _install_lock:
        _active = None
        _active_token = None


def active() -> Optional[FaultPlan]:
    return _active


def _suppress_depth() -> int:
    return getattr(_suppress, "depth", 0)


def is_suppressed() -> bool:
    return _suppress_depth() > 0


@contextlib.contextmanager
def suppressed() -> Iterator[None]:
    """No fault fires in this context *on this thread* (recovery paths)."""
    _suppress.depth = _suppress_depth() + 1
    try:
        yield
    finally:
        _suppress.depth -= 1


def should_fire(site: str, key: Optional[str] = None) -> bool:
    """Consult the installed plan at ``site`` (False when none/suppressed)."""
    plan = _active
    if plan is None or is_suppressed():
        return False
    return plan.should_fire(site, key)


def act(action: str) -> None:
    """Execute a worker fault action in the current process."""
    if action == "raise":
        raise InjectedFault("injected worker fault")
    if action == "hang":
        time.sleep(HANG_SECONDS)
        return
    if action == "die":
        if hasattr(signal, "SIGKILL"):  # POSIX: die like an OOM kill
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(86)  # pragma: no cover - non-POSIX fallback
    raise ValueError(f"unknown fault action {action!r}")

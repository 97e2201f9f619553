"""The OpenDRC engine facade (paper Fig. 1 / Listing 1).

Usage mirrors the paper::

    import repro as odrc

    db = odrc.gdsii.read_layout("design.gds")
    engine = odrc.Engine(mode="parallel")
    engine.add_rules([
        odrc.rules.polygons().is_rectilinear(),
        odrc.rules.layer(19).width().greater_than(18),
    ])
    report = engine.check(db)

``check`` is the two-stage pipeline of the paper's application layer
(§V-A): the deck is first **compiled** against the layout into a
:class:`~repro.core.plan.CheckPlan` (validation, per-kind strategy
resolution, dependency inference, shared caches), then **executed** by the
:class:`~repro.core.plan.Backend` the plan's mode selects, one rule at a
time in the plan's run order (each layer's shape rule first).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..layout.library import Layout
from ..util.profile import PhaseProfile
from .packstore import resolve_store
from .plan import (
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    CheckPlan,
    EngineOptions,
    compile_plan,
    make_backend,
)
from .results import CheckReport, CheckResult
from .rules import Rule, validate_rules

if TYPE_CHECKING:
    from ..gpu.device import Device
    from .reportcache import ReportCache

__all__ = [
    "CheckContext",
    "Engine",
    "EngineOptions",
    "MODE_PARALLEL",
    "MODE_SEQUENTIAL",
]


@dataclasses.dataclass
class CheckContext:
    """All mutable state of one ``check()`` execution, owned by one caller.

    Before concurrent serving, this state lived directly on :class:`Engine`
    (``last_profiles`` filled in while rules ran, the backend doubling as
    "the check currently executing"), which made two simultaneous checks
    through one engine corrupt each other's phase timers and result maps.
    Factoring it into a per-request context makes ``check()`` re-entrant:
    every concurrent request gets its own plan, backend, profiles, and
    result map, while the engine's heavyweight shared state (the report
    store) is shared deliberately and guarded at its own mutation points.
    The context — and with it the plan, its caches and the backend — is
    dropped when ``check()`` returns; only ``last_profiles`` survives, as
    an end-of-check snapshot (last writer wins) for the CLI and the
    benchmark ledger. A caller that needs the backend builds one:
    :func:`~repro.core.plan.compile_plan` plus
    :func:`~repro.core.plan.make_backend`.
    """

    plan: CheckPlan
    backend: object
    #: Rule name -> PhaseProfile, filled in as each rule executes.
    profiles: Dict[str, PhaseProfile] = dataclasses.field(default_factory=dict)
    #: Rule name -> CheckResult, merged into deck order for the report.
    results_by_name: Dict[str, CheckResult] = dataclasses.field(
        default_factory=dict
    )
    report: Optional[CheckReport] = None


class Engine:
    """The DRC engine: holds a rule deck and executes it on layouts."""

    def __init__(
        self,
        mode: Optional[str] = None,
        *,
        options: Optional[EngineOptions] = None,
        device: Optional[Device] = None,
        reports: Optional[ReportCache] = None,
    ) -> None:
        if options is not None:
            if mode is not None and mode != options.mode:
                raise ValueError(
                    f"conflicting modes: positional mode {mode!r} vs "
                    f"options.mode {options.mode!r}; pass one or make them agree"
                )
            self.options = options
        else:
            # EngineOptions validates the mode (and the other knobs) once.
            self.options = EngineOptions(mode=mode if mode is not None else MODE_SEQUENTIAL)
        self.device = device
        #: The report store check() asks before computing and saves into:
        #: the injected one, else one over the configured cache directory.
        #: None (no directory, or use_cache off): every check computes.
        self.reports = reports
        store = resolve_store(self.options) if reports is None else None
        if store is not None:
            from .reportcache import ReportCache

            self.reports = ReportCache(store)
        self.rules: List[Rule] = []
        #: Guards the last_* snapshots against concurrent check() callers.
        self._lock = threading.Lock()
        #: Profiles of the last check() call, keyed by rule name (Fig. 4 data).
        self.last_profiles: Dict[str, PhaseProfile] = {}
        #: The RecheckOutcome of the last recheck() call (diff, dispositions).
        self.last_recheck = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release what is held beyond individual checks (idempotent):
        nothing today — a check keeps no plan or backend once it returns."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- deck management ------------------------------------------------------

    def add_rules(self, rules: Sequence[Rule]) -> "Engine":
        """Append rules to the deck (chainable, as in Listing 1)."""
        combined = self.rules + list(rules)
        validate_rules(combined)
        self.rules = combined
        return self

    def add_rule(self, rule: Rule) -> "Engine":
        return self.add_rules([rule])

    def clear_rules(self) -> "Engine":
        self.rules = []
        return self

    # -- execution ---------------------------------------------------------------

    def compile(
        self,
        layout: Layout,
        *,
        rules: Optional[Sequence[Rule]] = None,
        tree=None,
    ) -> CheckPlan:
        """Compile the deck (or an explicit rule list) against ``layout``.

        ``tree`` short-circuits hierarchy analysis with an already-built
        :class:`HierarchyTree` for ``layout`` (long-lived callers such as
        the serve daemon keep one per session).
        """
        deck = list(rules) if rules is not None else self.rules
        return compile_plan(layout, deck, self.options, tree=tree)

    def check(
        self,
        layout: Layout,
        *,
        rules: Optional[Sequence[Rule]] = None,
        tree=None,
        deck_key: Optional[str] = None,
    ) -> CheckReport:
        """Run the deck (or an explicit rule list) on ``layout``.

        A report store (:attr:`reports`) is asked first, by the deck's
        digest (``deck_key`` if the caller holds it, or a private token;
        else computed) and the plan's layer digests: a hit is returned
        relabelled with this layout's name and nothing executes
        (``last_profiles`` is empty); a miss is computed and saved. The plan
        is compiled either way, so deck validation does not depend on the
        store. A deck with no digest is always computed.

        Re-entrant: concurrent callers each execute in a private
        :class:`CheckContext`; see its docstring for the sharing contract.
        """
        plan = self.compile(layout, rules=rules, tree=tree)
        key = None
        if self.reports is not None:
            from .reportcache import deck_digest, report_key

            key = report_key(
                deck_key or deck_digest(plan.rules), plan.caches.layer_digests()
            )
        if key is not None:
            report = self.reports.load(key, plan.rules, layout_name=layout.name)
            if report is not None:
                with self._lock:
                    self.last_profiles = {}
                return report
        report = self._run(plan)
        if key is not None:
            self.reports.save(key, report)
        return report

    def recheck(
        self,
        old: Layout,
        new: Layout,
        *,
        rules: Optional[Sequence[Rule]] = None,
        cached: Optional[CheckReport] = None,
        verify: bool = False,
    ) -> CheckReport:
        """Incrementally re-check ``new`` given a previous check of ``old``:
        :func:`repro.core.incremental.recheck` with this engine's deck,
        options and report store — the baseline is ``cached``, else the
        store's report of ``old`` (a prior :meth:`check` put it there).

        The spliced violations are byte-identical to a cold full check of
        ``new`` (``verify=True`` asserts it). The outcome (diff, per-rule
        disposition, cache hit) is kept on :attr:`last_recheck`.
        """
        from .incremental import recheck as run_recheck

        deck = list(rules) if rules is not None else self.rules
        outcome = run_recheck(
            old, new, rules=deck, options=self.options, cached=cached,
            verify=verify, reports=self.reports,
        )
        self.last_recheck = outcome
        return outcome.report

    def _run(self, plan: CheckPlan) -> CheckReport:
        """Run the plan's rules on its backend, in the plan's run order.

        All per-check mutable state lives in a :class:`CheckContext` local
        to this call; the engine only publishes ``last_profiles`` once the
        check completes.
        """
        context = CheckContext(
            plan=plan, backend=make_backend(plan, device=self.device)
        )
        backend = context.backend
        for compiled in plan.run_order:
            rule = compiled.rule
            profile = PhaseProfile()
            start = time.perf_counter()
            violations = backend.run(rule, profile)
            seconds = time.perf_counter() - start
            context.profiles[rule.name] = profile
            context.results_by_name[rule.name] = CheckResult(
                rule=rule,
                violations=violations,
                seconds=seconds,
                profile=profile,
                stats=backend.stats(),
            )
        context.report = CheckReport(
            plan.layout.name,
            plan.mode,
            [context.results_by_name[compiled.name] for compiled in plan.compiled],
        )
        with self._lock:
            # A last-writer-wins snapshot for serial introspection (CLI
            # profile dumps, the ledger); concurrent callers use their context.
            self.last_profiles = context.profiles
        return context.report

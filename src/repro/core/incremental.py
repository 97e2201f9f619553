"""Incremental checking: the windowed procedure, multi-window plans, recheck.

Production DRC flows re-check only the region an edit touched. The
machinery here comes in three layers:

* :func:`check_regions` checks one rule of a plan against a *region set* —
  one or many windows, coalesced into the exact disjoint cover of their
  union. It gathers just the geometry that can participate in a violation
  whose marker overlaps any window (the rings overlapping the windows
  inflated by the rule distance, read as placed rings off the MBR-pruned
  subtree walk, one traversal for the whole set), checks that
  sub-population flat, and keeps
  violations overlapping the set. The result equals the full check
  filtered to the region set (asserted by the tests), at a cost
  proportional to the windows' content rather than the chip's. Windowing
  is a region argument, not an execution mode: the procedure runs
  in-process on any plan.

* :func:`check_window` runs a whole deck against a region set: a stored
  full-extent report filtered to the regions, else :func:`check_regions`
  once per rule.

* :func:`recheck` is the true incremental path: diff two layout versions
  (:mod:`~repro.core.diff`), re-check each rule only inside its dirty
  halo, and splice the fresh violations into the previous report
  (:func:`~repro.core.results.splice_violations`). Rules whose layers are
  untouched reuse their cached result outright; globally coupled rules
  (coloring) re-run fully. The spliced violations are byte-identical to a
  cold full check of the new version.

The per-kind flat procedures come from the same
:func:`~repro.core.plan.kind_spec` registry the backends use
(``spec.flat``), so a rule kind added there is automatically windowable —
provided it also declares its interaction distance.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from ..geometry import IDENTITY, Rect
from ..layout.library import Layout
from ..spatial.regions import RegionSet, WindowsLike
from ..violation_table import ViolationTable
from .diff import FULL_RECHECK, LayoutDiff, diff_layouts
from .plan import (
    MODE_SEQUENTIAL,
    MODE_WINDOWED,
    CheckPlan,
    EngineOptions,
    compile_plan,
    kind_spec,
)
from .packstore import resolve_store
from .reportcache import ReportCache, deck_digest, report_key
from .results import CheckReport, CheckResult, splice_violations
from .rules import Rule


def check_regions(plan: CheckPlan, rule: Rule, regions: WindowsLike) -> ViolationTable:
    """One rule of ``plan`` on a region set: the table of its violations
    whose markers overlap the set.

    The rule kind's ``flat`` procedure receives a gather over the regions
    inflated by its margin: the placed rings one subtree walk
    (:meth:`~repro.hierarchy.pruning.SubtreeWindow.rings_in_regions`) meets
    from the top. ``gather.rect`` and ``gather.window`` (the set's MBR)
    anchor the kinds that need a single reach rect (coloring closure,
    min-overlap base gathering). The procedure's rows are clipped by the
    keep-mask :func:`filter_to_regions` takes, so the two agree by
    construction.
    """
    regions = RegionSet.of(regions)
    if regions.is_empty:
        raise ValueError("window must be non-empty")
    subtree = plan.caches.subtree
    top = plan.tree.top.name

    def gather(layer: int, margin: int, *, named: bool = False):
        windows = [r.inflated(margin) for r in regions.rects]
        return subtree.rings_in_regions(top, IDENTITY, layer, windows, named=named)

    def gather_rect(layer: int, rect: Rect):
        return subtree.rings_in_window(top, IDENTITY, layer, rect)

    gather.rect = gather_rect
    gather.window = regions.bounds
    table = ViolationTable.from_rows(kind_spec(rule.kind).flat(rule, plan.layout, gather))
    return table.select(table.overlapping(regions.rects))


def filter_to_regions(full: CheckReport, window: WindowsLike) -> CheckReport:
    """A full-extent report clipped to a region set: what
    :func:`check_regions` computes for the same deck and layout, by its own
    contract. One keep-mask per table, the one :func:`check_regions` clips
    with."""
    regions = RegionSet.of(window)
    results = [
        CheckResult(
            rule=result.rule,
            violations=result.table.select(result.table.overlapping(regions.rects)),
            seconds=0.0,
            stats={"window_filtered": 1},
        )
        for result in full.results
    ]
    return CheckReport(full.layout_name, MODE_WINDOWED, results)


def _store(reports: Optional[ReportCache], options) -> Optional[ReportCache]:
    """The report store to ask: the injected one, else the configured one."""
    if reports is not None:
        return reports
    store = resolve_store(options)
    return None if store is None else ReportCache(store)


def check_window(
    layout: Layout,
    window: WindowsLike,
    *,
    rules: Sequence[Rule],
    options: Optional[EngineOptions] = None,
    tree=None,
    reports: Optional[ReportCache] = None,
) -> CheckReport:
    """Check only the given window(s) of ``layout``; violations clip to them.

    ``window`` is one rect, a sequence of rects (overlapping windows are
    coalesced; each violation reports once however many windows it
    straddles), or a prebuilt :class:`~repro.spatial.regions.RegionSet`.

    If the report store (``reports``, else the one ``options`` configure)
    holds this deck and layout's full-extent report, the answer is
    :func:`filter_to_regions` of it. Otherwise :func:`check_regions` runs
    each rule in-process, whatever ``options.mode`` says; its clipped
    report is never stored, so every entry of the store is full-extent and
    a valid splice baseline.
    """
    regions = RegionSet.of(window)
    if regions.is_empty:
        raise ValueError("window must be non-empty")
    plan = compile_plan(layout, rules, options, mode=MODE_SEQUENTIAL, tree=tree)
    reports = _store(reports, options)
    key = None
    if reports is not None:
        key = report_key(deck_digest(plan.rules), plan.caches.layer_digests())
    if key is not None:
        full = reports.load(key, plan.rules, layout_name=layout.name)
        if full is not None:
            return filter_to_regions(full, regions)
    results: List[CheckResult] = []
    for rule in plan.rules:
        start = time.perf_counter()
        table = check_regions(plan, rule, regions)
        results.append(
            CheckResult(rule=rule, violations=table, seconds=time.perf_counter() - start)
        )
    return CheckReport(layout.name, MODE_WINDOWED, results)


# ---------------------------------------------------------------------------
# True incremental re-check


#: Mode label of spliced reports.
MODE_RECHECK = "recheck"


@dataclasses.dataclass
class RecheckOutcome:
    """A spliced report plus how it was produced (per-rule disposition)."""

    report: CheckReport
    diff: LayoutDiff
    #: rule name -> "cached" | "windowed" | "full" | "cold"
    disposition: Dict[str, str]
    #: True when the baseline came from the persistent report cache.
    cache_hit: bool
    #: Set when ``verify=True``: the cold reference report.
    reference: Optional[CheckReport] = None


def recheck(
    old: Layout,
    new: Layout,
    *,
    rules: Sequence[Rule],
    options: Optional[EngineOptions] = None,
    cached: Optional[CheckReport] = None,
    verify: bool = False,
    old_tree=None,
    new_tree=None,
    old_digests: Optional[Dict[int, str]] = None,
    new_digests: Optional[Dict[int, str]] = None,
    reports: Optional[ReportCache] = None,
    deck_key: Optional[str] = None,
) -> RecheckOutcome:
    """Re-check ``new`` given a previous report of ``old``, splicing results.

    The baseline report comes from ``cached`` (an in-memory report of the
    *old* version) or from the report store — ``reports``, else the one
    ``options.cache_dir`` / ``REPRO_CACHE_DIR`` configure — keyed by the
    rule deck digest (``deck_key`` if the caller holds it, or its private
    token) and the old version's per-layer geometry digests. Without a
    baseline the new version is checked cold. Either way its report is
    stored, so the *next* edit rechecks incrementally.

    Each rule is dispatched on its diff: untouched layers reuse the cached
    result verbatim; localisable edits re-check only the dirty rects
    inflated by the rule's interaction distance and splice; globally
    coupled rules re-run fully. ``verify=True`` additionally runs the cold
    full check — on an engine with no store, so nothing stored can answer
    for it — asserts the spliced violations match it byte-for-byte, and
    stores the report only after that.

    Each version's hierarchy tree and layer digests are built once here and
    shared by the diff, the cache keys and the plan; a caller that already
    holds some of them (the daemon keeps a session's) passes them in.
    """
    deck = list(rules)
    if not deck:
        raise ValueError("no rules to recheck")
    opts = options if options is not None else EngineOptions()

    diff = diff_layouts(
        old,
        new,
        old_tree=old_tree,
        new_tree=new_tree,
        old_digests=old_digests,
        new_digests=new_digests,
    )
    reports = _store(reports, opts)
    if reports is None:
        deck_key = None
    elif deck_key is None:
        deck_key = deck_digest(deck)

    # Keys use each version's own layer list, matching what a plain
    # Engine.check of that version stores (diff digests span the union);
    # both are None without a store or a deck digest.
    old_key = report_key(deck_key, {L: diff.old_digests[L] for L in old.layers()})
    new_key = report_key(deck_key, {L: diff.new_digests[L] for L in new.layers()})

    baseline = cached
    cache_hit = False
    if baseline is None and old_key is not None:
        baseline = reports.load(old_key, deck)
        cache_hit = baseline is not None
    if baseline is not None:
        try:
            baseline_results = {r.rule.name: r for r in baseline.results}
            if set(baseline_results) != {rule.name for rule in deck}:
                baseline = None
        except AttributeError:
            baseline = None

    if baseline is None:
        # Cold start: the engine asks the store for the new version and
        # saves what it computes — except under verify, where the report is
        # its own reference and so must really be computed.
        report = _full_check(
            diff.new_tree, deck, opts, None if verify else reports, deck_key
        )
        if verify and new_key is not None:
            reports.save(new_key, report)
        disposition = {rule.name: "cold" for rule in deck}
        reference = report if verify else None
        return RecheckOutcome(report, diff, disposition, False, reference)

    plan = compile_plan(new, deck, opts, mode=MODE_SEQUENTIAL, tree=diff.new_tree)
    results: List[CheckResult] = []
    disposition: Dict[str, str] = {}
    full_backend = None
    for rule in deck:
        regions = diff.regions_for(rule)
        old_result = baseline_results[rule.name]
        if regions is None:
            # No involved layer changed: the cached result is exact,
            # and its immutable table is shared, not copied.
            disposition[rule.name] = "cached"
            results.append(
                CheckResult(
                    rule=rule,
                    violations=old_result.table,
                    seconds=0.0,
                    stats={"recheck_cached": 1},
                )
            )
        elif regions is FULL_RECHECK:
            if full_backend is None:
                from .sequential import SequentialBackend

                full_backend = SequentialBackend(plan)
            disposition[rule.name] = "full"
            start = time.perf_counter()
            violations = full_backend.run(rule)
            results.append(
                CheckResult(
                    rule=rule,
                    violations=violations,
                    seconds=time.perf_counter() - start,
                    stats={"recheck_full": 1},
                )
            )
        else:
            disposition[rule.name] = "windowed"
            start = time.perf_counter()
            fresh = check_regions(plan, rule, regions)
            violations = splice_violations(old_result.table, fresh, regions)
            results.append(
                CheckResult(
                    rule=rule,
                    violations=violations,
                    seconds=time.perf_counter() - start,
                    stats={
                        "recheck_windowed": 1,
                        "recheck_window_rects": len(regions),
                        "recheck_fresh_violations": len(fresh),
                    },
                )
            )

    report = CheckReport(new.name, MODE_RECHECK, results)
    outcome = RecheckOutcome(report, diff, disposition, cache_hit=cache_hit)
    if verify:
        outcome.reference = _full_check(diff.new_tree, deck, opts, None, None)
        if report.to_csv() != outcome.reference.to_csv():
            raise AssertionError(
                "spliced recheck report diverges from the cold full check"
            )
    if new_key is not None:
        reports.save(new_key, report)
    return outcome


def _full_check(
    tree,
    deck: List[Rule],
    opts: EngineOptions,
    reports: Optional[ReportCache],
    deck_key: Optional[str],
) -> CheckReport:
    """Full check of ``tree``'s layout through the regular engine path (mode
    respected), which asks ``reports`` first (under ``deck_key``) and saves into
    it; with None the engine gets no store at all, not even a configured one."""
    from .engine import Engine

    if reports is None:
        opts = dataclasses.replace(opts, use_cache=False)
    with Engine(options=opts, reports=reports) as engine:
        return engine.check(tree.layout, rules=deck, tree=tree, deck_key=deck_key)

"""Multi-core sharded execution: a process-parallel backend over the rows.

Every other backend in this reproduction models parallelism on one OS core;
this one uses the machine's. A compiled :class:`~repro.core.plan.CheckPlan`
is cut two ways across a pool of worker processes:

* **Row shards** — for intra-layer rules (spacing, corner spacing,
  enclosure) the rows of the adaptive partition (paper §IV-B) are the shard
  unit: cross-row pairs are provably beyond the rule distance, so whole rows
  can be checked on different cores with no communication. Rows are packed
  into shards by the greedy LPT assignment
  (:func:`~repro.core.scheduler.greedy_balanced_shards`), oversubscribed so
  the pool's shared task queue acts as a work-stealing deque: a worker that
  finishes a light shard steals the next pending one instead of idling
  behind a skewed row (the paper's row-skew problem, now across cores).
* **Rule tasks** — every other rule kind becomes one pool task, submitted
  eagerly by :meth:`MultiprocessBackend.prefetch` so workers run ahead of
  the engine's serial per-rule drive.

Workers live in a :class:`~repro.core.workerpool.WorkerPool` — generic,
deck-free processes that pre-import the heavy modules. The layout + rule
deck is spooled to disk once per content digest
(:meth:`~repro.core.workerpool.WorkerPool.ensure_plan`); tasks carry a tiny
:class:`~repro.core.workerpool.PlanRef` and each worker compiles + caches
the plan on first touch, staying warm across rules, checks, and pool
rebuilds. With ``warm_pool`` enabled the pool itself outlives the check
(process-wide registry), so a repeat check of the same deck spawns zero
processes and ships only shard descriptors (``mp_plan_compiles == 0``).
When several backends share one warm pool (concurrent serving), each
submits under its own requester token and the pool's fair dispatcher
interleaves their tasks round-robin, so no request's shard batch starves
another's.

A calibrated :class:`~repro.core.costmodel.CostModel` (enabled by
``EngineOptions.cost_model``) prices every fan-out against the measured
pool dispatch overhead: rules whose estimated compute is below break-even
run inline in the parent (``mp_cost_routed_inline``), and winning rules
get their shard count sized to amortize per-task dispatch. An uncalibrated
model routes nothing — first occurrences always take the status-quo path
and thereby produce the observations that calibrate it.

A row shard is a :class:`_RowShardTask`: the rule plus a subset of its
fused segmented rows, checked by the same
:func:`~repro.core.parallel.run_row_task` the in-process backend runs on
all rows. The packed edge / corner / rect buffers travel through
``multiprocessing.shared_memory`` views (:mod:`repro.gpu.shmem`) — or, when
the pack store served them, as descriptors of its memmap pages — rather
than pickled polygon objects. Each
task returns its violation list plus stats-counter deltas and a
:class:`~repro.util.profile.PhaseProfile` dict; the parent merges them in
submission order, and the canonical violation sort in
:class:`~repro.core.results.CheckResult` makes the merged report *equal as
a plain list* to the sequential one, regardless of worker count or
scheduling order.

Rules that cannot cross a process boundary (e.g. ``ensures`` rules with
lambda predicates) are detected by a pickle probe and run inline in the
parent — correctness never depends on picklability.

Fault tolerance (the production posture): every ``get()`` carries a
per-task timeout, failed or timed-out tasks are resubmitted with bounded
exponential backoff, a task that exhausts its retries runs in-process
instead (and its rule stops using the pool), and if the pool itself cannot
be kept alive the whole backend degrades to the sequential backend — the
check always completes with the canonical report; only the
``mp_retries`` / ``mp_timeouts`` / ``mp_inline_fallbacks`` /
``mp_degraded`` counters reveal that recovery happened. Recovery paths run
under :func:`repro.util.faults.suppressed` so injected faults can never
fail the fallback itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import multiprocessing
import pickle
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..checks.base import Violation
from ..gpu.device import Device
from ..gpu.shmem import ArrayRef, ShmArena, file_backed_ref
from ..util import faults
from ..util.logging import get_logger
from ..util.profile import PhaseProfile
from . import costmodel, workerpool
from .packstore import store_key
from .parallel import ROW_KINDS, ParallelBackend, RowWork, run_row_task, select_rows
from .plan import MODE_PARALLEL, CheckPlan
from .rules import Rule
from .scheduler import greedy_balanced_shards, shard_count
from .workerpool import PlanRef

__all__ = ["MultiprocessBackend"]

#: Pool teardown-and-rebuild attempts before the backend degrades for good.
MAX_POOL_RESTARTS = 2

#: First retry backoff (seconds); doubles per attempt, capped below.
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_CAP = 1.0

_logger = get_logger("multiproc")


def _rule_picklable(rule: Rule) -> bool:
    try:
        pickle.dumps(rule)
        return True
    except Exception:
        return False


def _predicate_identity(predicate) -> Optional[Tuple[Any, Any]]:
    if predicate is None:
        return None
    return (
        getattr(predicate, "__module__", None),
        getattr(predicate, "__qualname__", repr(predicate)),
    )


def _rule_identity(rule: Rule) -> Tuple[Any, ...]:
    """A value-based identity for the probe memo and cost-model keys.

    Predicates are identified by (module, qualname), which is correct for
    any named function and safe for lambdas — but it cannot see instance
    state, so two callable instances of one class collide. That is
    acceptable *only* here, where a collision changes a routing decision
    (probe result, cost estimate), never a report. Anything that feeds the
    shipped plan digest must use :func:`_rule_ship_identity` instead.
    """
    return (
        rule.name,
        rule.kind.value,
        rule.layer,
        rule.other_layer,
        rule.value,
        _predicate_identity(rule.predicate),
    )


def _rule_ship_identity(rule: Rule) -> Tuple[Any, ...]:
    """Identity of a rule *as it ships to workers* (plan-digest use).

    The plan digest keys the spooled payload: a collision there makes a
    warm pool silently run a previous check's pickled rules, so predicate
    identity must come from the bytes that actually ship. For rules that
    passed the pickle probe that is a content hash of the pickled
    predicate — ``Thresh(5)`` and ``Thresh(10)`` share a qualname but not
    a pickle. Unpicklable predicates never ship, so their qualname
    identity is inert in the digest.
    """
    predicate = rule.predicate
    identity: Any = None
    if predicate is not None:
        try:
            identity = hashlib.sha256(
                pickle.dumps(predicate, protocol=pickle.HIGHEST_PROTOCOL)
            ).hexdigest()
        except Exception:
            identity = _predicate_identity(predicate)
    return (
        rule.name,
        rule.kind.value,
        rule.layer,
        rule.other_layer,
        rule.value,
        identity,
    )


#: Process-wide pickle-probe memo: repeated (warm) checks of a deck skip the
#: probe entirely; ``mp_pickle_probes`` counts only actual probe executions.
_PROBE_CACHE: Dict[Tuple[Any, ...], bool] = {}


# ---------------------------------------------------------------------------
# Buffer transport (ArrayRef payloads for the shard tasks)
# ---------------------------------------------------------------------------


def _map_arrays(buffers, fn):
    """A copy of a (nested) buffer dataclass with ``fn`` applied to every
    array field — arrays out to :class:`ArrayRef` descriptors in the parent,
    descriptors back to arrays in the worker."""
    changes = {}
    for field in dataclasses.fields(buffers):
        value = getattr(buffers, field.name)
        if isinstance(value, (np.ndarray, ArrayRef)):
            changes[field.name] = fn(value)
        elif dataclasses.is_dataclass(value):
            changes[field.name] = _map_arrays(value, fn)
    return dataclasses.replace(buffers, **changes)


def _file_refs(buffers) -> Optional[Tuple[Any, int]]:
    """Memmap descriptors (and the bytes they cover) for pack-store-backed
    fused buffers, or ``None``.

    When the fused buffers were served from the persistent pack store, every
    component array is a window of the store's memmap — the shard payload
    can then carry (path, offset) descriptors plus the shard's row ids, and
    each worker maps the same pages instead of copying bytes through shared
    memory. Any non-file-backed component (cold run, `--no-cache`) vetoes
    the whole payload so the ShmArena transport takes over.
    """
    refs: List[Optional[ArrayRef]] = []
    nbytes = 0

    def ref(array: np.ndarray) -> Optional[ArrayRef]:
        nonlocal nbytes
        nbytes += array.nbytes
        refs.append(file_backed_ref(array))
        return refs[-1]

    payload = _map_arrays(buffers, ref)
    return None if any(r is None for r in refs) else (payload, nbytes)


# ---------------------------------------------------------------------------
# Worker-side tasks
# ---------------------------------------------------------------------------
#
# Worker-process state (compiled plan cache, shard device) lives in
# :mod:`repro.core.workerpool` so it survives across checks and is shared
# by every deck a warm pool serves.


def _counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


@dataclasses.dataclass
class _RuleTask:
    """One whole rule, run on the worker's warm backend for ``ref``."""

    rule: Rule
    ref: PlanRef

    def execute(self):
        backend = workerpool.plan_backend(self.ref)
        before = backend.stats()
        profile = PhaseProfile()
        violations = backend.run(self.rule, profile)
        return violations, _counter_delta(before, backend.stats()), profile.to_dict()


@dataclasses.dataclass
class _RowShardTask:
    """A subset of one rule's fused rows: the same row task the in-process
    backend runs, on fewer rows.

    ``buffers`` are the rule's fused buffers with :class:`ArrayRef`
    descriptors in place of arrays — already cut down to this shard's rows,
    unless ``rows`` is set: then they describe the whole (memmap-backed)
    buffers and the worker cuts its rows after mapping them.
    """

    rule: Rule
    threshold: int
    buffers: Any
    rows: Optional[List[int]] = None

    def execute(self):
        device, executors = workerpool.worker_device()
        before = device.counters()
        profile = PhaseProfile()
        buffers = _map_arrays(self.buffers, ArrayRef.resolve)
        if self.rows is not None:
            buffers = select_rows(buffers, self.rows)
        violations, stats = run_row_task(
            self.rule, buffers, self.threshold, executors, profile
        )
        stats.update(_counter_delta(before, device.counters()))
        return violations, stats, profile.to_dict()


#: Per-backend fault-injection epochs: a warm pool's workers outlive the
#: check, so installing by spec alone would carry budgets a previous check
#: consumed into the next one — unlike the cold path, whose fresh workers
#: re-arm every check. Salting the install with the backend's epoch makes
#: each check re-arm exactly once per worker, cold or warm.
_FAULT_EPOCH = itertools.count(1)


def _run_task(
    task,
    fault: Optional[str] = None,
    spec: Optional[str] = None,
    epoch: Optional[int] = None,
):
    """Pool entry point: dispatch one task in the worker process.

    ``fault`` is the parent-decided injected action ("raise"/"hang"/"die")
    executed before the task body; None on every healthy submission.
    ``spec`` arms the worker-side fault sites (shm attach, pack-store
    reads). Workers are generic and outlive checks, so the spec rides on
    every task; installation is idempotent by (spec, epoch), preserving
    budgets within a check while re-arming between checks.
    """
    faults.install(spec, token=epoch)
    if fault is not None:
        faults.act(fault)
    return task.execute()


@dataclasses.dataclass
class _Pending:
    """One submitted task plus what is needed to retry or run it inline."""

    task: Any
    rule: Rule
    result: Any  # multiprocessing AsyncResult
    attempts: int = 1


# ---------------------------------------------------------------------------
# The parent-side backend
# ---------------------------------------------------------------------------


class MultiprocessBackend:
    """Shards a compiled plan across a pool of worker processes.

    ``jobs == 1`` degrades to the in-process fused backend (exact parity —
    the honest baseline for the scaling benchmark). With a window, rules fan
    out at rule granularity only (windowed gathering has no row partition).
    """

    def __init__(
        self,
        plan: CheckPlan,
        *,
        device: Optional[Device] = None,
        window=None,
    ) -> None:
        self.plan = plan
        self.window = window
        self.options = plan.options
        self.jobs = self.options.jobs
        self.task_timeout = self.options.task_timeout
        self.max_retries = self.options.max_retries
        self.device = device if device is not None else Device()
        self._pool: Optional[workerpool.WorkerPool] = None
        self._owns_pool = not workerpool.warm_pool_enabled(self.options)
        self._pool_restarts = 0
        self._closed = False
        self._prefetched: Dict[str, _Pending] = {}
        self._inline_rules: set = set()
        self._totals: Dict[str, float] = {}
        self._arenas: List[ShmArena] = []
        self._mp_counters: Dict[str, float] = {
            "mp_rule_tasks": 0,
            "mp_shard_tasks": 0,
            "mp_shm_bytes": 0,
            "mp_mmap_bytes": 0,
            "mp_retries": 0,
            "mp_timeouts": 0,
            "mp_inline_fallbacks": 0,
            "mp_degraded": 0,
            "mp_plan_compiles": 0,
            "mp_pickle_probes": 0,
            "mp_cost_routed_inline": 0,
        }
        self._local = None
        self._fallback = None
        self._model: Optional[costmodel.CostModel] = (
            costmodel.model_for(plan.caches.store)
            if getattr(self.options, "cost_model", True)
            else None
        )
        #: Rules the cost model routed inline (distinct from `_inline_rules`,
        #: which records pickle failures and recovery fallbacks).
        self._cost_inline: set = set()
        #: Rule name -> accumulated worker compute seconds (calibration).
        self._compute_seconds: Dict[str, float] = {}
        self._cost_keys: Dict[str, str] = {}
        self._plan_payload_ref: Optional[PlanRef] = None
        #: Distinguishes this check's fault-injection installs from those of
        #: earlier checks served by the same warm workers (see _FAULT_EPOCH).
        self._fault_epoch = next(_FAULT_EPOCH)
        #: The (jobs, start_method) registry key of the shared warm pool this
        #: backend actually used, or None; Engine.close() releases every key
        #: its checks touched, not just the one its current options select.
        self.warm_pool_key: Optional[Tuple[int, Optional[str]]] = None

    # -- backend protocol ---------------------------------------------------

    def run(self, rule: Rule, profile: Optional[PhaseProfile] = None) -> List[Violation]:
        if profile is None:
            profile = PhaseProfile()
        self._closed = False
        pending = self._prefetched.pop(rule.name, None)
        if pending is not None:
            violations = self._collect(pending, profile)
            self._observe_rule_cost(rule)
            return violations
        if self._degraded:
            return self._degraded_run(rule, profile)
        if self.jobs == 1 or rule.name in self._inline_rules:
            return self._local_backend().run(rule, profile)
        if rule.name in self._cost_inline:
            return self._timed_local_run(rule, profile)
        if self.window is None and rule.kind in ROW_KINDS:
            return self._run_sharded(rule, profile)
        if not self._probe(rule):
            self._inline_rules.add(rule.name)
            return self._local_backend().run(rule, profile)
        if self._route_rule_inline(rule):
            return self._timed_local_run(rule, profile)
        self._mp_counters["mp_rule_tasks"] += 1
        try:
            pending = self._submit(_RuleTask(rule, self._plan_ref()), rule)
        except Exception as error:
            self._degrade(f"cannot submit to the worker pool: {error!r}")
            return self._degraded_run(rule, profile)
        violations = self._collect(pending, profile)
        self._observe_rule_cost(rule)
        return violations

    def stats(self) -> Dict[str, float]:
        merged = dict(self._totals)
        others = [b for b in (self._local, self._fallback) if b is not None]
        for backend in others:
            for key, value in backend.stats().items():
                merged[key] = merged.get(key, 0) + value
        for key, value in self._mp_counters.items():
            merged[key] = merged.get(key, 0) + value
        merged["mp_jobs"] = self.jobs
        return merged

    # -- pool lifecycle -----------------------------------------------------

    def prefetch(self) -> None:
        """Submit every rule-granular task now, ahead of the serial drive.

        Rule executions are independent pure functions of the plan (the
        dependency edges only order *results*), so workers can run rule N+5
        while the parent is still merging rule N.
        """
        if self.jobs == 1 or self._degraded:
            return
        self._closed = False
        for compiled in self.plan.compiled:
            rule = compiled.rule
            if self.window is None and rule.kind in ROW_KINDS:
                continue
            if rule.name in self._inline_rules or rule.name in self._cost_inline:
                continue
            if not self._probe(rule):
                self._inline_rules.add(rule.name)
                continue
            if self._route_rule_inline(rule):
                # Below break-even: run() serves it inline in the parent.
                continue
            self._mp_counters["mp_rule_tasks"] += 1
            try:
                self._prefetched[rule.name] = self._submit(
                    _RuleTask(rule, self._plan_ref()), rule
                )
            except Exception as error:
                self._mp_counters["mp_rule_tasks"] -= 1
                self._degrade(f"cannot prefetch to the worker pool: {error!r}")
                return

    def close(self) -> None:
        """Release pool + shared memory and flush counters (idempotent)."""
        self._close(persist=True)

    def _close(self, persist: bool) -> None:
        if self._closed:
            return
        self._closed = True
        self._prefetched.clear()
        # Calibrate the dispatch overhead against the live, already-warm
        # workers — measuring here (not at spawn) means cold checks never
        # block on worker boot, and the constant lands in the persisted
        # model for the next check. A pool that timed out or degraded is
        # suspect: skip it rather than risk stalling on a wedged worker.
        if (
            persist
            and self._model is not None
            and self._pool is not None
            and self.jobs > 1
            and not self._degraded
            and not self._mp_counters["mp_timeouts"]
        ):
            seconds = self._pool.dispatch_seconds(measure=True)
            if seconds:
                self._model.observe_dispatch(seconds)
        # Unlink live shared-memory arenas *before* terminating the pool:
        # a pool torn down mid-rule still references them, and terminate()
        # alone would leave the /dev/shm segments behind for good.
        for arena in list(self._arenas):
            arena.dispose()
        self._arenas.clear()
        self._teardown_pool()
        if persist:
            store = self.plan.caches.store
            if store is not None:
                store.persist_counters()
            if self._model is not None:
                self._model.save()

    def __del__(self) -> None:  # pragma: no cover - safety net
        # On the interpreter-teardown path skip counter persistence: the
        # explicit close() already flushed (or the run never had a store),
        # and half-torn-down modules make file I/O unreliable here.
        try:
            finalizing = bool(sys.is_finalizing())
        except Exception:
            finalizing = True
        try:
            self._close(persist=not finalizing)
        except Exception:
            pass

    def _teardown_pool(self, *, broken: bool = False) -> None:
        pool = self._pool
        if pool is None:
            return
        if broken:
            # Restart-ladder semantics: terminate the worker processes but
            # keep the pool object and its spooled plans — the next
            # submission respawns a generation that re-warms from the spool
            # without a reship (and in-flight PlanRefs stay valid).
            pool.rebuild()
            return
        self._pool = None
        if self._owns_pool:
            pool.close()
        elif self._mp_counters["mp_timeouts"]:
            # A check that saw timeouts may be leaving wedged workers behind
            # — a private pool terminates them in close(), but a shared pool
            # outlives this backend, so recycle its workers now. The spool
            # survives, so the next check still ships nothing.
            pool.rebuild()
        # A shared warm pool just loses this backend's reference and stays
        # alive for the next check; Engine.close() / atexit reclaims it.

    def _ensure_pool(self) -> workerpool.WorkerPool:
        if self._pool is None:
            if self._owns_pool:
                self._pool = workerpool.WorkerPool(
                    self.jobs, start_method=self.options.mp_start_method
                )
            else:
                self._pool = workerpool.get_pool(
                    self.jobs, self.options.mp_start_method
                )
                self.warm_pool_key = (self.jobs, self.options.mp_start_method)
        self._pool.ensure()
        return self._pool

    def _plan_ref(self) -> PlanRef:
        """The spooled-payload handle rule tasks carry (ships at most once).

        ``mp_plan_compiles`` counts actual payload builds: the second check
        of a deck against a warm pool finds its digest spooled and reports
        zero.
        """
        if self._plan_payload_ref is None:
            pool = self._ensure_pool()
            shippable = [r for r in self.plan.rules if self._probe(r)]
            worker_options = dataclasses.replace(
                self.options, jobs=1, mode=MODE_PARALLEL
            )
            digest = self._plan_digest(shippable, worker_options)

            def make_payload() -> bytes:
                return pickle.dumps(
                    (self.plan.layout, shippable, worker_options, self.window),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )

            path, shipped = pool.ensure_plan(digest, make_payload)
            if shipped:
                self._mp_counters["mp_plan_compiles"] += 1
            self._plan_payload_ref = PlanRef(digest=digest, path=path)
        return self._plan_payload_ref

    def _plan_digest(self, shippable: List[Rule], worker_options) -> str:
        """Content digest of everything a worker's compiled plan depends on.

        Shippable rules are identified by :func:`_rule_ship_identity`
        (pickle content hash) because they are literally part of the
        spooled payload; the rest only gate which names ship, so their
        qualname identity is enough.
        """
        caches = self.plan.caches
        layers = set()
        wildcard = False
        for rule in self.plan.rules:
            if rule.layer is None:
                wildcard = True
            else:
                layers.add(rule.layer)
            if rule.other_layer is not None:
                layers.add(rule.other_layer)
        if wildcard:
            layers.update(self.plan.layout.layers())
        geometry = tuple(
            (layer, caches.layer_digest(layer)) for layer in sorted(layers)
        )
        shippable_names = {rule.name for rule in shippable}
        return store_key(
            "mp-plan",
            self.plan.layout.name,
            self.plan.tree.top.name,
            geometry,
            tuple(
                _rule_ship_identity(rule)
                if rule.name in shippable_names
                else _rule_identity(rule)
                for rule in self.plan.rules
            ),
            tuple(rule.name for rule in shippable),
            repr(worker_options),
            repr(self.window),
        )

    # -- helpers ------------------------------------------------------------

    def _probe(self, rule: Rule) -> bool:
        """Pickle-probe one rule, memoized process-wide by rule identity.

        Repeat checks of a deck (warm pools, fix loops) skip the probe —
        ``mp_pickle_probes`` counts only actual executions and stays flat
        across re-checks.
        """
        key = _rule_identity(rule)
        cached = _PROBE_CACHE.get(key)
        if cached is None:
            cached = _rule_picklable(rule)
            _PROBE_CACHE[key] = cached
            self._mp_counters["mp_pickle_probes"] += 1
        return cached

    # -- cost-model routing ---------------------------------------------------

    def _rule_cost_key(self, rule: Rule) -> str:
        """Geometry-qualified cost key: estimates never cross layouts."""
        key = self._cost_keys.get(rule.name)
        if key is None:
            caches = self.plan.caches
            if rule.layer is None:
                geometry = tuple(
                    caches.layer_digest(layer)
                    for layer in self.plan.layout.layers()
                )
            elif rule.other_layer is not None:
                geometry = (
                    caches.layer_digest(rule.layer),
                    caches.layer_digest(rule.other_layer),
                )
            else:
                geometry = caches.layer_digest(rule.layer)
            key = store_key("rule-cost", geometry, _rule_identity(rule))
            self._cost_keys[rule.name] = key
        return key

    def _route_rule_inline(self, rule: Rule) -> bool:
        """True when the model prices this rule below pool break-even."""
        if self._model is None:
            return False
        estimate = self._model.estimate_rule(self._rule_cost_key(rule))
        if estimate is None or self._model.worth_pooling(estimate, self.jobs):
            return False
        self._cost_inline.add(rule.name)
        self._mp_counters["mp_cost_routed_inline"] += 1
        return True

    def _timed_local_run(
        self, rule: Rule, profile: PhaseProfile
    ) -> List[Violation]:
        """Run a routed-inline rule in the parent, feeding the calibration."""
        start = time.perf_counter()
        violations = self._local_backend().run(rule, profile)
        if self._model is not None:
            self._model.observe_rule(
                self._rule_cost_key(rule), time.perf_counter() - start
            )
        return violations

    def _observe_rule_cost(self, rule: Rule) -> None:
        """Fold one pooled rule's worker compute into the model."""
        seconds = self._compute_seconds.pop(rule.name, None)
        if seconds and self._model is not None:
            self._model.observe_rule(self._rule_cost_key(rule), seconds)

    def _observe_shard_cost(self, rule: Rule, weight: float) -> None:
        """Fold one sharded rule's worker compute into the per-kind rate."""
        seconds = self._compute_seconds.pop(rule.name, None)
        if seconds and self._model is not None:
            self._model.observe_kind(rule.kind.value, weight, seconds)

    def _shard_plan(
        self, rule: Rule, weight: float, num_items: int
    ) -> Optional[int]:
        """Shard count for one row-sharded rule, or None to run it inline.

        Uncalibrated (no per-kind rate yet) keeps the status-quo
        oversubscribed count — the resulting pooled run is what produces
        the first observation.
        """
        if self._model is None:
            return shard_count(num_items, self.jobs)
        estimate = self._model.estimate_kind(rule.kind.value, weight)
        if estimate is None:
            return shard_count(num_items, self.jobs)
        # A sharded fan-out issues ~jobs dispatches; bill them all.
        if not self._model.worth_pooling(estimate, self.jobs, tasks=self.jobs):
            return None
        return self._model.plan_shards(estimate, num_items, self.jobs)

    def _timed_sharded_inline(
        self, rule: Rule, work: RowWork, profile: PhaseProfile
    ) -> List[Violation]:
        """Run a routed-inline sharded rule locally, feeding the rate EWMA."""
        self._mp_counters["mp_cost_routed_inline"] += 1
        weight = float(work.weights.sum())
        start = time.perf_counter()
        violations = self._local_backend().finish_rows(rule, work, profile)
        if self._model is not None and weight > 0:
            self._model.observe_kind(
                rule.kind.value, weight, time.perf_counter() - start
            )
        return violations

    def _local_backend(self):
        """In-process fallback/packer: fused GPU backend (or windowed)."""
        if self._local is None:
            if self.window is not None:
                from .incremental import WindowedBackend

                self._local = WindowedBackend(self.plan, self.window)
            else:
                self._local = ParallelBackend(self.plan, device=self.device)
        return self._local

    def _merge_stats(self, delta: Dict[str, float]) -> None:
        for key, value in delta.items():
            self._totals[key] = self._totals.get(key, 0) + value

    # -- fault tolerance ----------------------------------------------------

    @property
    def _degraded(self) -> bool:
        return bool(self._mp_counters["mp_degraded"])

    def _degrade(self, reason: str) -> None:
        """Give up on process parallelism for the rest of this backend."""
        if not self._degraded:
            self._mp_counters["mp_degraded"] = 1
            _logger.warning(
                "multiprocess backend degraded to in-process execution: %s",
                reason,
            )
        # Pending results belong to a dead pool; their rules re-run through
        # the degraded path instead of waiting out a timeout each.
        self._prefetched.clear()
        self._teardown_pool(broken=True)

    def _degraded_run(self, rule: Rule, profile: PhaseProfile) -> List[Violation]:
        """Complete a rule without the pool (canonical report regardless)."""
        with faults.suppressed():
            if self.window is not None:
                return self._local_backend().run(rule, profile)
            return self._sequential_backend().run(rule, profile)

    def _sequential_backend(self):
        if self._fallback is None:
            from .sequential import SequentialBackend

            self._fallback = SequentialBackend(self.plan)
        return self._fallback

    def _submit(self, task, rule: Rule) -> _Pending:
        """Submit one task, restarting a dead pool up to the restart budget.

        The submission also draws the parent-side injected worker fault for
        this task (``worker_raise`` / ``worker_hang`` / ``worker_die``) —
        deciding here keeps fault firing deterministic in plan order.
        """
        if self._degraded:
            raise RuntimeError("multiprocess backend already degraded")
        spec = faults.resolve_spec(self.options)
        while True:
            try:
                pool = self._ensure_pool()
                fault = None
                if not faults.is_suppressed():
                    plan = faults.active()
                    if plan is not None:
                        fault = plan.worker_fault(rule.name)
                # A shared warm pool may be multiplexed across concurrent
                # backends: submissions carry this backend's requester token
                # so the pool's fair dispatcher interleaves round-robin
                # across requests instead of letting a big shard batch
                # starve a small concurrent check. A private pool has one
                # requester by construction — direct submission.
                return _Pending(
                    task=task,
                    rule=rule,
                    result=pool.apply_async(
                        _run_task,
                        (task, fault, spec, self._fault_epoch),
                        requester=None if self._owns_pool else self._fault_epoch,
                    ),
                )
            except Exception:
                self._teardown_pool(broken=True)
                if self._pool_restarts >= MAX_POOL_RESTARTS:
                    raise
                self._pool_restarts += 1
                _logger.warning(
                    "worker pool unusable; rebuilding (%d/%d)",
                    self._pool_restarts, MAX_POOL_RESTARTS,
                )

    def _collect(self, pending: _Pending, profile: PhaseProfile) -> List[Violation]:
        """Await one task, retrying with backoff; inline after the budget."""
        while True:
            if self._degraded:
                # The pool died under another task; this result will never
                # arrive — don't wait out a timeout for it.
                return self._run_inline(pending, profile)
            try:
                violations, stats_delta, profile_dict = pending.result.get(
                    self.task_timeout
                )
            except multiprocessing.TimeoutError:
                # Hung worker — or a worker that died and took the task
                # with it (the pool repopulates the process, but the result
                # is lost; the timeout is what detects that).
                self._mp_counters["mp_timeouts"] += 1
                _logger.warning(
                    "task for rule %r timed out after %.1fs (attempt %d)",
                    pending.rule.name, self.task_timeout, pending.attempts,
                )
            except Exception as error:
                _logger.warning(
                    "task for rule %r failed in the worker (attempt %d): %r",
                    pending.rule.name, pending.attempts, error,
                )
            else:
                self._merge_stats(stats_delta)
                profile.add_dict(profile_dict)
                # Worker compute seconds feed the cost-model calibration.
                self._compute_seconds[pending.rule.name] = self._compute_seconds.get(
                    pending.rule.name, 0.0
                ) + sum(profile_dict.values())
                return violations
            if pending.attempts > self.max_retries:
                return self._run_inline(pending, profile)
            time.sleep(
                min(RETRY_BACKOFF * (2 ** (pending.attempts - 1)), RETRY_BACKOFF_CAP)
            )
            try:
                retry = self._submit(pending.task, pending.rule)
            except Exception as error:
                self._degrade(f"cannot resubmit to the worker pool: {error!r}")
                return self._run_inline(pending, profile)
            pending.result = retry.result
            pending.attempts += 1
            self._mp_counters["mp_retries"] += 1

    def _run_inline(self, pending: _Pending, profile: PhaseProfile) -> List[Violation]:
        """Last resort for one task: execute it in this process.

        Runs under fault suppression — recovery must never be re-faulted —
        and marks the rule inline so its later tasks skip the pool.
        """
        self._mp_counters["mp_inline_fallbacks"] += 1
        self._inline_rules.add(pending.rule.name)
        with faults.suppressed():
            if isinstance(pending.task, _RuleTask):
                return self._local_backend().run(pending.rule, profile)
            violations, stats_delta, profile_dict = pending.task.execute()
        self._merge_stats(stats_delta)
        profile.add_dict(profile_dict)
        return violations

    def _execute_shard_locally(self, task, profile: PhaseProfile) -> List[Violation]:
        """Run one shard task in the parent (no pool round trip).

        Shard tasks are pure functions of their (sealed) buffers, so a
        failed first attempt — e.g. an injected attach fault firing in
        this process — can safely re-execute under suppression.
        """
        try:
            violations, stats_delta, profile_dict = task.execute()
        except Exception:
            with faults.suppressed():
                violations, stats_delta, profile_dict = task.execute()
        self._merge_stats(stats_delta)
        profile.add_dict(profile_dict)
        return violations

    # -- arena bookkeeping ---------------------------------------------------

    def _new_arena(self) -> ShmArena:
        arena = ShmArena()
        self._arenas.append(arena)
        return arena

    def _release_arena(self, arena: ShmArena) -> None:
        arena.dispose()
        try:
            self._arenas.remove(arena)
        except ValueError:  # pragma: no cover - already released by close()
            pass

    def _gather_shards(
        self, rule: Rule, arena: ShmArena, tasks: List[Any], profile: PhaseProfile
    ) -> List[Violation]:
        """Seal, fan out, and merge one rule's shard tasks (in order)."""
        if not tasks:
            self._release_arena(arena)
            return []
        arena.seal()
        if len(tasks) == 1:
            # A degenerate single-shard plan (row filtering, tiny layouts)
            # would pay a full pool round trip for zero parallelism — run
            # the task right here instead. ``mp_shard_tasks`` counts pool
            # traffic only, so it stays honest.
            try:
                return self._execute_shard_locally(tasks[0], profile)
            finally:
                self._release_arena(arena)
        self._mp_counters["mp_shard_tasks"] += len(tasks)
        self._mp_counters["mp_shm_bytes"] += arena.nbytes
        violations: List[Violation] = []
        try:
            pending: List[_Pending] = []
            for task in tasks:
                try:
                    pending.append(self._submit(task, rule))
                except Exception as error:
                    self._degrade(f"cannot submit shard: {error!r}")
                    violations.extend(
                        self._run_inline(
                            _Pending(task=task, rule=rule, result=None), profile
                        )
                    )
            for item in pending:
                violations.extend(self._collect(item, profile))
        finally:
            self._release_arena(arena)
        return violations

    # -- row sharding -------------------------------------------------------

    def _run_sharded(self, rule: Rule, profile: PhaseProfile) -> List[Violation]:
        """Cut one row-kind rule's fused rows across the pool.

        The local backend partitions and packs; rows with device work are
        balanced into shards by weight. Anything not worth a fan-out — fewer
        than two such rows, a cost-model inline verdict, a single-shard
        plan — finishes in the parent on the work already prepared.
        """
        local = self._local_backend()
        work = local.row_work(rule, profile)
        num_rows = int(np.count_nonzero(work.weights))
        if num_rows < 2:
            return local.finish_rows(rule, work, profile)
        weight = float(work.weights.sum())
        # Route before anything executes: an inline decision must cover the
        # whole rule (host rows included) in one local run.
        num_shards = self._shard_plan(rule, weight, num_rows)
        if num_shards is None:
            return self._timed_sharded_inline(rule, work, profile)
        shards = greedy_balanced_shards(work.weights.tolist(), num_shards)
        if len(shards) < 2:
            return local.finish_rows(rule, work, profile)
        # Host rows stay in the parent — identical to the in-process path.
        violations = local.run_host_rows(rule, work, profile)
        arena = self._new_arena()
        tasks = self._shard_tasks(rule, work.buffers, shards, arena)
        violations.extend(self._gather_shards(rule, arena, tasks, profile))
        self._observe_shard_cost(rule, weight)
        return violations

    def _shard_tasks(
        self, rule: Rule, buffers: Any, shards: List[List[int]], arena: ShmArena
    ) -> List[_RowShardTask]:
        """One task per shard (a list of row ids) of a rule's fused buffers."""
        # Only the numbers ship; a stray unpicklable predicate must not.
        rule = dataclasses.replace(rule, predicate=None)
        threshold = self.options.brute_force_threshold
        mapped = _file_refs(buffers)
        tasks: List[_RowShardTask] = []
        for rows in shards:
            if mapped is not None:
                # Store-served buffers: ship memmap descriptors plus this
                # shard's row ids — workers map the same pack-store pages,
                # zero bytes copied.
                refs, nbytes = mapped
                self._mp_counters["mp_mmap_bytes"] += nbytes
                tasks.append(_RowShardTask(rule, threshold, refs, list(rows)))
            else:
                staged = _map_arrays(select_rows(buffers, rows), arena.stage)
                tasks.append(_RowShardTask(rule, threshold, staged))
        return tasks

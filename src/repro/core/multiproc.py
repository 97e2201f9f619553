"""Multi-core sharded execution: a process-parallel backend over the rows.

Every other backend in this reproduction models parallelism on one OS core;
this one uses the machine's. The unit of parallel work is the row of the
adaptive partition (paper §IV-B): for intra-layer rules (spacing, corner
spacing, enclosure — :data:`~repro.core.parallel.ROW_KINDS`) cross-row pairs
are provably beyond the rule distance, so whole rows can be checked on
different cores with no communication. Rows are packed into shards by the
greedy LPT assignment (:func:`~repro.core.scheduler.greedy_balanced_shards`),
oversubscribed so the pool's shared task queue acts as a work-stealing
deque: a worker that finishes a light shard steals the next pending one
instead of idling behind a skewed row (the paper's row-skew problem, now
across cores). Every other rule kind (width, area, rectilinear, ensures, …)
runs in the parent on the in-process
:class:`~repro.core.parallel.ParallelBackend`, exactly as at ``jobs == 1``.

Workers live in a :class:`~repro.core.workerpool.WorkerPool` — generic,
deck-free processes that pre-import the heavy modules and never see the
layout or the deck. The backend holds the process-wide pool for its (jobs,
start method) from first use to ``close()``; an
:class:`~repro.core.engine.Engine` holds it from its first multiprocess
check to its own ``close()``, so a repeat check on one engine spawns zero
processes. Every backend submits under its own requester token and the
pool's fair dispatcher interleaves concurrent backends' tasks round-robin,
so no request's shard batch starves another's.

A calibrated :class:`~repro.core.costmodel.CostModel` prices every fan-out
against the measured pool dispatch overhead: rules whose estimated compute
is below break-even run inline in the parent (``mp_cost_routed_inline``),
and winning rules get their shard count sized to amortize per-task
dispatch. An uncalibrated model routes nothing — first occurrences always
take the status-quo path and thereby produce the observations that
calibrate it.

A row shard is a :class:`_RowShardTask`: the rule (its predicate stripped)
plus a subset of its fused segmented rows, checked by the same
:func:`~repro.core.parallel.run_row_task` the in-process backend runs on
all rows. The packed edge / corner / rect buffers of the shard's rows
travel through ``multiprocessing.shared_memory`` views
(:mod:`repro.gpu.shmem`) rather than pickled polygon objects. Each
task returns its :class:`~repro.violation_table.ViolationTable` (pickled
as its arrays) plus stats-counter deltas and a
:class:`~repro.util.profile.PhaseProfile` dict; the parent concatenates
the tables in submission order, and their canonical form (dedup + one
sort) makes the merged report *equal as a plain list* to the sequential
one, regardless of worker count or scheduling order.

Fault tolerance (the production posture): every ``get()`` carries a
per-task timeout, failed or timed-out tasks are resubmitted with bounded
exponential backoff, a task that exhausts its retries runs in-process
instead (and its rule stops using the pool), and if the pool itself cannot
be kept alive the whole backend degrades to the in-process backend — the
check always completes with the canonical report; only the
``mp_retries`` / ``mp_timeouts`` / ``mp_inline_fallbacks`` /
``mp_degraded`` counters reveal that recovery happened. Recovery paths run
under :func:`repro.util.faults.suppressed` so injected faults can never
fail the fallback itself.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from ..checks.base import Violation
from ..gpu.device import Device
from ..gpu.shmem import ArrayRef, ShmArena
from ..util import faults
from ..util.logging import get_logger
from ..util.profile import PhaseProfile
from ..violation_table import ViolationTable
from . import costmodel, workerpool
from .parallel import ROW_KINDS, ParallelBackend, RowWork, run_row_task, select_rows
from .plan import CheckPlan
from .results import Violations
from .rules import Rule
from .scheduler import greedy_balanced_shards, shard_count

__all__ = ["MultiprocessBackend"]

#: Pool teardown-and-rebuild attempts before the backend degrades for good.
MAX_POOL_RESTARTS = 2

#: First retry backoff (seconds); doubles per attempt, capped below.
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_CAP = 1.0

_logger = get_logger("multiproc")


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


# ---------------------------------------------------------------------------
# Worker-side tasks
# ---------------------------------------------------------------------------
#
# Worker-process state (the shard device) lives in
# :mod:`repro.core.workerpool` so it survives across checks.


def _counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


@dataclasses.dataclass
class _RowShardTask:
    """A subset of one rule's fused rows: the same row task the in-process
    backend runs, on fewer rows.

    ``buffers`` are the rule's fused buffers cut down to this shard's rows,
    with :class:`ArrayRef` descriptors in place of arrays.
    """

    rule: Rule
    threshold: int
    buffers: Any

    def execute(self):
        device, executors = workerpool.worker_device()
        before = device.counters()
        profile = PhaseProfile()
        buffers = _map_arrays(self.buffers, ArrayRef.resolve)
        violations, stats = run_row_task(
            self.rule, buffers, self.threshold, executors, profile
        )
        stats.update(_counter_delta(before, device.counters()))
        return violations, stats, profile.to_dict()


#: Per-backend fault-injection epochs: a pool's workers outlive the check,
#: so installing by spec alone would carry budgets a previous check
#: consumed into the next one. Salting the install with the backend's epoch
#: makes each check re-arm exactly once per worker, fresh or reused. The
#: epoch is also the backend's requester token in the fair dispatcher.
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
    ``spec`` arms the worker-side fault site (the shared-memory attach).
    Workers are generic and outlive checks, so the spec rides on
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
    """Shards row-kind rules across a pool of worker processes.

    Every other rule kind, and every rule at ``jobs == 1``, runs on the
    in-process fused backend (exact parity — the honest baseline for the
    scaling benchmark).
    """

    def __init__(
        self,
        plan: CheckPlan,
        *,
        device: Optional[Device] = None,
    ) -> None:
        self.plan = plan
        self.options = plan.options
        self.jobs = self.options.jobs
        self.task_timeout = self.options.task_timeout
        self.max_retries = self.options.max_retries
        self.device = device if device is not None else Device()
        self._pool: Optional[workerpool.WorkerPool] = None
        self._pool_restarts = 0
        self._closed = False
        #: Rules whose shard tasks exhausted their retries: they stay home.
        self._inline_rules: set = set()
        self._totals: Dict[str, float] = {}
        self._arenas: List[ShmArena] = []
        self._mp_counters: Dict[str, float] = {
            "mp_shard_tasks": 0,
            "mp_shm_bytes": 0,
            "mp_retries": 0,
            "mp_timeouts": 0,
            "mp_inline_fallbacks": 0,
            "mp_degraded": 0,
            "mp_cost_routed_inline": 0,
        }
        self._local: Optional[ParallelBackend] = None
        self._model = costmodel.model_for(plan.caches.store)
        #: Rule name -> accumulated worker compute seconds (calibration).
        self._compute_seconds: Dict[str, float] = {}
        #: Distinguishes this check's fault-injection installs from those of
        #: earlier checks served by the same workers (see _FAULT_EPOCH).
        self._fault_epoch = next(_FAULT_EPOCH)

    # -- backend protocol ---------------------------------------------------

    def run(self, rule: Rule, profile: Optional[PhaseProfile] = None) -> List[Violation]:
        if profile is None:
            profile = PhaseProfile()
        self._closed = False
        if self._degraded:
            return self._degraded_run(rule, profile)
        if (
            self.jobs == 1
            or rule.kind not in ROW_KINDS
            or rule.name in self._inline_rules
        ):
            return self._local_backend().run(rule, profile)
        return self._run_sharded(rule, profile)

    def stats(self) -> Dict[str, float]:
        merged = dict(self._totals)
        if self._local is not None:
            for key, value in self._local.stats().items():
                merged[key] = merged.get(key, 0) + value
        for key, value in self._mp_counters.items():
            merged[key] = merged.get(key, 0) + value
        merged["mp_jobs"] = self.jobs
        return merged

    # -- pool lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release pool + shared memory and flush counters (idempotent)."""
        self._close(persist=True)

    def _close(self, persist: bool) -> None:
        if self._closed:
            return
        self._closed = True
        # Calibrate the dispatch overhead against the live, already-warm
        # workers — measuring here (not at spawn) means cold checks never
        # block on worker boot, and the constant lands in the persisted
        # model for the next check. A pool that timed out or degraded is
        # suspect: skip it rather than risk stalling on a wedged worker.
        if (
            persist
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
            # keep the pool object — the next submission respawns a fresh
            # generation.
            pool.rebuild()
            return
        self._pool = None
        if self._mp_counters["mp_timeouts"]:
            # A check that saw timeouts may be leaving wedged workers behind
            # for the pool's other holders: recycle them now.
            pool.rebuild()
        pool.release()

    def _ensure_pool(self) -> workerpool.WorkerPool:
        if self._pool is None:
            self._pool = workerpool.acquire(
                self.jobs, self.options.mp_start_method
            )
        self._pool.ensure()
        return self._pool

    # -- cost-model routing ---------------------------------------------------

    def _observe_shard_cost(self, rule: Rule, weight: float) -> None:
        """Fold one sharded rule's worker compute into the per-kind rate."""
        seconds = self._compute_seconds.pop(rule.name, None)
        if seconds:
            self._model.observe_kind(rule.kind.value, weight, seconds)

    def _shard_plan(
        self, rule: Rule, weight: float, num_items: int
    ) -> Optional[int]:
        """Shard count for one row-sharded rule, or None to run it inline.

        Uncalibrated (no per-kind rate yet) keeps the status-quo
        oversubscribed count — the resulting pooled run is what produces
        the first observation.
        """
        estimate = self._model.estimate_kind(rule.kind.value, weight)
        if estimate is None:
            return shard_count(num_items, self.jobs)
        if not self._model.worth_pooling(estimate, self.jobs):
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
        if weight > 0:
            self._model.observe_kind(
                rule.kind.value, weight, time.perf_counter() - start
            )
        return violations

    def _local_backend(self) -> ParallelBackend:
        """The in-process fused backend: packer, non-row kinds, fallback."""
        if self._local is None:
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
        self._teardown_pool(broken=True)

    def _degraded_run(self, rule: Rule, profile: PhaseProfile) -> List[Violation]:
        """Complete a rule without the pool (canonical report regardless)."""
        with faults.suppressed():
            return self._local_backend().run(rule, profile)

    def _submit(self, task, rule: Rule, *, retry: bool = False) -> _Pending:
        """Submit one task, restarting a dead pool up to the restart budget.

        A ``retry`` skips the fair dispatcher's queue, so its timeout runs
        from this submission.

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
                # The pool may be multiplexed across concurrent backends:
                # submissions carry this backend's requester token so the
                # pool's fair dispatcher interleaves round-robin across
                # requests instead of letting a big shard batch starve a
                # small concurrent check.
                return _Pending(
                    task=task,
                    rule=rule,
                    result=pool.apply_async(
                        _run_task,
                        (task, fault, spec, self._fault_epoch),
                        requester=self._fault_epoch,
                        urgent=retry,
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
                violations, delta, profile_dict = pending.result.get(
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
                self._merge_stats(delta)
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
                retry = self._submit(pending.task, pending.rule, retry=True)
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
            violations, delta, profile_dict = pending.task.execute()
        self._merge_stats(delta)
        profile.add_dict(profile_dict)
        return violations

    def _execute_shard_locally(self, task, profile: PhaseProfile) -> List[Violation]:
        """Run one shard task in the parent (no pool round trip).

        Shard tasks are pure functions of their (sealed) buffers, so a
        failed first attempt — e.g. an injected attach fault firing in
        this process — can safely re-execute under suppression.
        """
        try:
            violations, delta, profile_dict = task.execute()
        except Exception:
            with faults.suppressed():
                violations, delta, profile_dict = task.execute()
        self._merge_stats(delta)
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
    ) -> Violations:
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
        parts: List[Violations] = []
        try:
            pending: List[_Pending] = []
            for task in tasks:
                try:
                    pending.append(self._submit(task, rule))
                except Exception as error:
                    self._degrade(f"cannot submit shard: {error!r}")
                    parts.append(
                        self._run_inline(
                            _Pending(task=task, rule=rule, result=None), profile
                        )
                    )
            for item in pending:
                parts.append(self._collect(item, profile))
        finally:
            self._release_arena(arena)
        return ViolationTable.concat(parts)

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
        host = local.run_host_rows(rule, work, profile)
        arena = self._new_arena()
        tasks = self._shard_tasks(rule, work.buffers, shards, arena)
        violations = ViolationTable.concat(
            [host, self._gather_shards(rule, arena, tasks, profile)]
        )
        self._observe_shard_cost(rule, weight)
        return violations

    def _shard_tasks(
        self, rule: Rule, buffers: Any, shards: List[List[int]], arena: ShmArena
    ) -> List[_RowShardTask]:
        """One task per shard (a list of row ids) of a rule's fused buffers."""
        # Only the numbers ship; a stray unpicklable predicate must not.
        rule = dataclasses.replace(rule, predicate=None)
        threshold = self._local_backend().brute_force_threshold
        return [
            _RowShardTask(
                rule, threshold, _map_arrays(select_rows(buffers, rows), arena.stage)
            )
            for rows in shards
        ]

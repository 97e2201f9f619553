"""Shared, holder-counted worker pools for the multiprocess backend.

Pool spawn, interpreter boot (under ``spawn``), module imports, payload
pickling and plan compilation are paid once per pool, not once per check:

* :class:`WorkerPool` owns a pool of generic workers that pre-import the
  heavy modules (:func:`_pool_warmup`) and carry **no** deck state in
  their initializer. Deck payloads are instead **spooled to disk once**
  per content digest (:meth:`WorkerPool.ensure_plan`); tasks carry a tiny
  :class:`PlanRef` and each worker lazily loads + compiles the plan on
  first touch, then keeps it cached (:data:`_PLAN_STATES`) across tasks,
  checks, and even pool rebuilds — a respawned worker re-reads the spool
  file instead of needing a reship.
* :func:`acquire` is the process-wide registry keyed by (jobs, start
  method): it creates or reuses the pool and adds a holder, and
  :meth:`WorkerPool.release` drops one — the last release closes the
  pool. A pool therefore lives exactly as long as its longest holder (an
  ``Engine`` until ``close()``, a backend for one check), so the second
  check of a deck on one engine ships only shard descriptors, and no
  holder can close a pool under another. :func:`shutdown_pools` runs at
  interpreter exit.
* :meth:`WorkerPool.dispatch_seconds` measures the real no-op round-trip
  cost of this pool — the constant the
  :class:`~repro.core.costmodel.CostModel` prices every routing decision
  with.

Fault-tolerance contract: :meth:`WorkerPool.rebuild` terminates the worker
processes but keeps the spool directory, so the multiprocess backend's
restart ladder (PR 5) recycles workers without invalidating in-flight
:class:`PlanRef` descriptors; a backend that degrades never needs the pool
again and ``close()`` reclaims everything.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "PLAN_CACHE_SIZE",
    "PlanRef",
    "WorkerPool",
    "acquire",
    "plan_backend",
    "shutdown_pools",
    "worker_device",
]

#: Compiled plans each worker process keeps warm (LRU by digest).
PLAN_CACHE_SIZE = 4

#: No-op round trips sampled by :meth:`WorkerPool.dispatch_seconds`. The
#: first sample is discarded — under ``spawn`` it absorbs interpreter boot.
_DISPATCH_SAMPLES = 3

#: Upper bound on one measurement round trip; a pool whose workers are all
#: wedged must not stall ``close()``.
_DISPATCH_TIMEOUT = 5.0


def _resolve_start_method(start_method: Optional[str]) -> Optional[str]:
    return start_method or os.environ.get("REPRO_MP_START") or None


# ---------------------------------------------------------------------------
# Worker-side state (lives in the worker processes)
# ---------------------------------------------------------------------------


def _pool_warmup() -> None:
    """Pool initializer: pay the import bill at spawn, not on task one."""
    # A forked worker inherits the parent's Python SIGTERM handler (the CLI
    # turns SIGTERM into SystemExit). ``Pool.terminate()`` stops workers
    # with SIGTERM while holding their task-queue lock; a handler that only
    # flags the signal can land just before the worker blocks on that lock,
    # and the parent's join then waits forever. Workers must die outright.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    import numpy  # noqa: F401

    from ..gpu import kernels  # noqa: F401
    from . import parallel  # noqa: F401
    from . import plan  # noqa: F401


@dataclasses.dataclass(frozen=True)
class PlanRef:
    """A content-addressed handle to one spooled deck payload."""

    digest: str
    path: str


#: digest -> {layout, rules, options, backend} in this worker.
_PLAN_STATES: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()


def _plan_state(ref: PlanRef) -> Dict[str, Any]:
    state = _PLAN_STATES.get(ref.digest)
    if state is None:
        import pickle

        with open(ref.path, "rb") as handle:
            layout, rules, options = pickle.loads(handle.read())
        state = {
            "layout": layout,
            "rules": rules,
            "options": options,
            "backend": None,
        }
        _PLAN_STATES[ref.digest] = state
        while len(_PLAN_STATES) > PLAN_CACHE_SIZE:
            # The current digest sits at the end; evict the coldest entry.
            _PLAN_STATES.popitem(last=False)
    else:
        _PLAN_STATES.move_to_end(ref.digest)
    return state


def plan_backend(ref: PlanRef):
    """This worker's compiled backend for the referenced deck (warm)."""
    from .plan import MODE_PARALLEL, compile_plan, make_backend

    state = _plan_state(ref)
    backend = state["backend"]
    if backend is None:
        plan = compile_plan(
            state["layout"], state["rules"], state["options"], mode=MODE_PARALLEL
        )
        backend = make_backend(plan)
        state["backend"] = backend
    return backend


_DEVICE_STATE: Dict[str, Any] = {}


def worker_device():
    """One simulated device + stream pair per worker process (shard tasks)."""
    state = _DEVICE_STATE.get("device")
    if state is None:
        from ..gpu.device import Device
        from ..gpu.executor import StreamExecutor

        device = Device("mp-worker")
        executors = [StreamExecutor(device.create_stream()) for _ in range(2)]
        state = (device, executors)
        _DEVICE_STATE["device"] = state
    return state


def _noop() -> None:
    return None


# ---------------------------------------------------------------------------
# Fair-share dispatch (multi-request pool multiplexing)
# ---------------------------------------------------------------------------


class _FairResult:
    """Result proxy matching ``AsyncResult.get(timeout)`` semantics.

    ``get`` blocks until the underlying pool task resolves; a timeout
    raises :class:`multiprocessing.TimeoutError` (so the multiprocess
    backend's retry ladder distinguishes hangs from worker exceptions), and
    a worker exception is re-raised as-is.

    The timeout meters the *dispatched* round trip only: time the task
    spends queued behind other requesters' turns does not count, because
    the backend's task timeout exists to detect hung workers, and a task
    that has not reached a worker yet cannot be hung. The queue wait is
    unbounded but cannot leak — every path out of the dispatcher
    (dispatch, pool failure, :meth:`_FairDispatcher.abandon` re-pump)
    either marks the proxy dispatched or resolves it.
    """

    __slots__ = ("_event", "_dispatch_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._dispatch_event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _mark_dispatched(self) -> None:
        self._dispatch_event.set()

    def _resolve(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error
        # Resolution ends any queue wait too (a proxy failed while still
        # queued must not strand its waiter on the dispatch event).
        self._dispatch_event.set()
        self._event.set()

    def ready(self) -> bool:
        return self._event.is_set()

    def get(self, timeout: Optional[float] = None) -> Any:
        if timeout is None:
            self._event.wait()
        else:
            self._dispatch_event.wait()
            if not self._event.wait(timeout):
                raise multiprocessing.TimeoutError()
        if self._error is not None:
            raise self._error
        return self._value


class _FairDispatcher:
    """Round-robin fair-share front of one pool's shared task queue.

    ``multiprocessing.Pool.apply_async`` pushes tasks into one FIFO, so a
    large check that submits a 32-shard batch ahead of a small concurrent
    request would starve it by the whole batch. The dispatcher keeps
    a FIFO *per requester* and feeds the real pool by rotating across the
    active requesters (the merge order of
    :func:`repro.core.scheduler.round_robin_interleave`), keeping at most
    ``2 * jobs`` tasks inside the pool so a late-arriving requester reaches
    a worker within about one task of joining. Order within one requester
    is preserved, which is why fair dispatch cannot reorder any single
    request's own results.

    Rebuild contract: :meth:`abandon` fails every dispatched-but-unresolved
    proxy with a ``RuntimeError`` (terminated workers will never fire their
    callbacks), so waiters fall into the backend's retry ladder immediately
    instead of hanging; still-queued tasks survive and drain into the
    respawned generation.
    """

    def __init__(self, pool: "WorkerPool") -> None:
        self._pool = pool
        self._lock = threading.Lock()
        #: requester -> FIFO of (proxy, func, args); insertion-ordered so
        #: the rotation is deterministic.
        self._queues: "OrderedDict[Any, deque]" = OrderedDict()
        #: Proxies handed to the live pool and not yet resolved.
        self._dispatched: set = set()
        self._inflight = 0
        self._max_inflight = max(2, 2 * pool.jobs)
        #: Requester tokens in dispatch order — lets tests assert fairness.
        self.dispatch_log: deque = deque(maxlen=256)

    def submit(self, requester: Any, func, args: Tuple[Any, ...]) -> _FairResult:
        proxy = _FairResult()
        with self._lock:
            queue = self._queues.get(requester)
            if queue is None:
                queue = deque()
                self._queues[requester] = queue
            queue.append((proxy, func, args))
        self._pump()
        return proxy

    def _pump(self) -> None:
        """Dispatch queued tasks into free in-flight slots, round-robin."""
        while True:
            with self._lock:
                if self._inflight >= self._max_inflight or not self._queues:
                    return
                requester = next(iter(self._queues))
                queue = self._queues[requester]
                proxy, func, args = queue.popleft()
                if queue:
                    # Rotate: this requester goes to the back of the merge.
                    self._queues.move_to_end(requester)
                else:
                    del self._queues[requester]
                self._dispatched.add(proxy)
                self._inflight += 1
                self.dispatch_log.append(requester)
                proxy._mark_dispatched()
            try:
                self._pool.ensure().apply_async(
                    func,
                    args,
                    callback=lambda value, p=proxy: self._done(p, value=value),
                    error_callback=lambda error, p=proxy: self._done(p, error=error),
                )
            except Exception as error:
                # Pool closed or spawn failed: fail this task, then keep
                # draining so every queued proxy resolves rather than hangs.
                self._done(proxy, error=error)

    def _done(
        self, proxy: _FairResult, value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if proxy not in self._dispatched:
                # Abandoned by a rebuild; a straggler callback from the old
                # generation must not double-decrement the slot count.
                return
            self._dispatched.discard(proxy)
            self._inflight -= 1
        proxy._resolve(value=value, error=error)
        self._pump()

    def abandon(self) -> None:
        """Fail dispatched-but-unresolved tasks after a pool rebuild."""
        with self._lock:
            dispatched = list(self._dispatched)
            self._dispatched.clear()
            self._inflight = 0
            queued = bool(self._queues)
        error = RuntimeError(
            "worker pool was rebuilt with fair-dispatched tasks in flight"
        )
        for proxy in dispatched:
            proxy._resolve(error=error)
        if queued:
            # Other requesters may be parked in get() with everything
            # already submitted — restart their drain into the fresh
            # generation (or fail them cleanly if the pool is closed).
            self._pump()


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """A rebuildable process pool plus its spooled deck payloads.

    Thread-safety: one pool is shared by every concurrent request of a
    serve daemon, so the lifecycle (:meth:`ensure`/:meth:`rebuild`/
    :meth:`close`), the spool index, and the calibration cache are guarded
    by an instance lock. The lock is never held across a fork or a worker
    round trip, only across bookkeeping.
    """

    def __init__(self, jobs: int, start_method: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs}")
        self.jobs = jobs
        self.start_method = _resolve_start_method(start_method)
        self._context = multiprocessing.get_context(self.start_method)
        self._lock = threading.RLock()
        self._pool = None
        self._spool_dir: Optional[str] = None
        self._spooled: Dict[str, str] = {}
        self._dispatch_seconds: Optional[float] = None
        self._closed = False
        #: Registry holders (see :func:`acquire`); guarded by _POOLS_LOCK.
        self._holders = 0
        #: Times the workers were (re)spawned — observable by tests.
        self.generation = 0
        self._dispatcher = _FairDispatcher(self)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def dispatch_log(self) -> deque:
        """Requester tokens in fair-dispatch order (observable by tests)."""
        return self._dispatcher.dispatch_log

    def ensure(self):
        """The live ``multiprocessing.Pool``, spawning workers if needed."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._pool is None:
                self._pool = self._context.Pool(
                    self.jobs, initializer=_pool_warmup
                )
                self.generation += 1
            return self._pool

    def apply_async(self, func, args: Tuple[Any, ...] = (), *, requester: Any):
        """Submit one task in ``requester``'s lane.

        It reaches the pool in round-robin merge order across all active
        requesters, so concurrent checks share the workers fairly instead
        of first-submitter-takes-all.
        """
        return self._dispatcher.submit(requester, func, args)

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (empty before first use)."""
        with self._lock:
            if self._pool is None:
                return []
            return sorted(proc.pid for proc in self._pool._pool)

    # -- plan spooling -------------------------------------------------------

    def ensure_plan(
        self, digest: str, make_payload: Callable[[], bytes]
    ) -> Tuple[str, bool]:
        """Spool the payload for ``digest`` once; returns ``(path, shipped)``.

        ``shipped`` is True only when the payload was actually built and
        written — a repeat check of the same deck finds its digest spooled
        and ships nothing. The file outlives pool rebuilds (respawned
        workers just re-read it) and is deleted by :meth:`close`. The
        instance lock covers the whole build-and-publish so two concurrent
        requests spooling the same digest ship it exactly once.
        """
        with self._lock:
            path = self._spooled.get(digest)
            if path is not None and os.path.exists(path):
                return path, False
            if self._spool_dir is None:
                self._spool_dir = tempfile.mkdtemp(prefix="repro-warmpool-")
            path = os.path.join(self._spool_dir, f"{digest[:32]}.plan")
            payload = make_payload()
            fd, tmp = tempfile.mkstemp(prefix=".plan.", dir=self._spool_dir)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._spooled[digest] = path
            return path, True

    # -- calibration ---------------------------------------------------------

    def dispatch_seconds(self, *, measure: bool = False) -> Optional[float]:
        """Measured no-op round-trip cost of this pool (None = unmeasured).

        Measurement is explicit (``measure=True``) and only runs against
        already-spawned workers, so cold single-shot checks never pay for
        it; the first sample is discarded because under ``spawn`` it
        absorbs the worker's interpreter boot.
        """
        with self._lock:
            if self._dispatch_seconds is not None or not measure:
                return self._dispatch_seconds
            pool = self._pool
        if pool is None:
            return None
        # Measure outside the lock: three no-op round trips must not stall
        # a concurrent request's ensure()/ensure_plan() bookkeeping.
        try:
            samples = []
            for _ in range(_DISPATCH_SAMPLES):
                start = time.perf_counter()
                pool.apply_async(_noop).get(_DISPATCH_TIMEOUT)
                samples.append(time.perf_counter() - start)
            measured = min(samples[1:] or samples)
        except Exception:
            return self._dispatch_seconds
        with self._lock:
            if self._dispatch_seconds is None:
                self._dispatch_seconds = measured
            return self._dispatch_seconds

    # -- lifecycle -----------------------------------------------------------

    def rebuild(self) -> None:
        """Terminate the workers, keep the spool: the restart-ladder hook.

        The next :meth:`ensure` respawns a fresh generation; in-flight
        :class:`PlanRef` descriptors stay valid because the spool files
        survive, so a recycled pool re-warms itself without a reship.
        Fair-dispatched tasks the dead generation was running are failed
        immediately (see :meth:`_FairDispatcher.abandon`) so their waiters
        hit the retry ladder instead of a full task timeout.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self._dispatcher.abandon()

    def close(self) -> None:
        """Terminate workers and delete the spool (idempotent, terminal)."""
        with self._lock:
            self._closed = True
        self.rebuild()
        with self._lock:
            self._spooled.clear()
            spool_dir, self._spool_dir = self._spool_dir, None
        if spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)

    def release(self) -> None:
        """Drop one :func:`acquire` hold; the last one closes the pool."""
        with _POOLS_LOCK:
            self._holders -= 1
            if self._holders > 0:
                return
            key = (self.jobs, self.start_method)
            if _POOLS.get(key) is self:
                del _POOLS[key]
        self.close()


# ---------------------------------------------------------------------------
# Process-wide registry
# ---------------------------------------------------------------------------

_POOLS: Dict[Tuple[int, Optional[str]], WorkerPool] = {}
_POOLS_LOCK = threading.Lock()


def acquire(jobs: int, start_method: Optional[str] = None) -> WorkerPool:
    """The shared pool for (jobs, start method), with one more holder.

    Created on first use (workers spawn on the first task). Every call is
    balanced by one :meth:`WorkerPool.release`. Registry lookups are
    locked: two concurrent requests racing here must land on the *same*
    pool, or each would spawn its own workers.
    """
    key = (jobs, _resolve_start_method(start_method))
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None or pool.closed:
            pool = WorkerPool(jobs, start_method=key[1])
            _POOLS[key] = pool
        pool._holders += 1
        return pool


def shutdown_pools() -> None:
    """Close every shared pool, held or not (atexit hook; tests call it
    for isolation)."""
    with _POOLS_LOCK:
        pools = [_POOLS.pop(key) for key in list(_POOLS)]
    for pool in pools:
        try:
            pool.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


atexit.register(shutdown_pools)

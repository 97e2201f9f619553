"""Shared, holder-counted worker pools for the multiprocess backend.

Pool spawn, interpreter boot (under ``spawn``) and module imports are paid
once per pool, not once per check:

* :class:`WorkerPool` owns a pool of generic workers that pre-import the
  heavy modules (:func:`_pool_warmup`) and carry **no** deck state: a row
  shard task carries its own buffers (through shared memory), so a worker
  never needs the layout or the deck. Its only state is one simulated
  device (:func:`worker_device`).
* :func:`acquire` is the process-wide registry keyed by (jobs, start
  method): it creates or reuses the pool and adds a holder, and
  :meth:`WorkerPool.release` drops one — the last release closes the
  pool. A pool therefore lives exactly as long as its longest holder (an
  ``Engine`` until ``close()``, a backend for one check), so the second
  check on one engine spawns no processes, and no holder can close a pool
  under another. :func:`shutdown_pools` runs at interpreter exit.
* :meth:`WorkerPool.dispatch_seconds` measures the real no-op round-trip
  cost of this pool — the constant the
  :class:`~repro.core.costmodel.CostModel` prices every routing decision
  with.

Fault-tolerance contract: :meth:`WorkerPool.rebuild` terminates the worker
processes and keeps the pool object, so the multiprocess backend's
restart ladder recycles workers in place; a backend that degrades never
needs the pool again and ``close()`` reclaims everything.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "WorkerPool",
    "acquire",
    "shutdown_pools",
    "worker_device",
]

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
    that has not reached a worker yet cannot be hung. The queue wait cannot
    leak — every path out of the dispatcher (dispatch, pool failure,
    :meth:`_FairDispatcher.abandon` re-pump) either marks the proxy
    dispatched or resolves it — and cannot stall behind hung workers: a
    waiter that times out gives the task's in-flight slot back
    (:meth:`_FairDispatcher.give_up`), so the tasks queued behind it still
    reach the pool.
    """

    __slots__ = ("_event", "_dispatch_event", "_value", "_error", "_dispatcher")

    def __init__(self, dispatcher: Optional["_FairDispatcher"] = None) -> None:
        self._event = threading.Event()
        self._dispatch_event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._dispatcher = dispatcher

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
                if self._dispatcher is not None:
                    self._dispatcher.give_up(self)
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

    A retry (``urgent``) skips the queue and the cap: it re-runs a task
    that already had its turn, and its waiter is already parked on it —
    queued behind the same requester's later shards, whose slots only that
    waiter frees, it would never be dispatched.

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

    def submit(
        self, requester: Any, func, args: Tuple[Any, ...], *, urgent: bool = False
    ) -> _FairResult:
        proxy = _FairResult(self)
        with self._lock:
            if urgent:
                self._take_slot(requester, proxy)
            else:
                queue = self._queues.get(requester)
                if queue is None:
                    queue = deque()
                    self._queues[requester] = queue
                queue.append((proxy, func, args))
        if urgent:
            self._dispatch(proxy, func, args)
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
                self._take_slot(requester, proxy)
            self._dispatch(proxy, func, args)

    def _take_slot(self, requester: Any, proxy: _FairResult) -> None:
        """Count ``proxy`` in flight (caller holds the lock)."""
        self._dispatched.add(proxy)
        self._inflight += 1
        self.dispatch_log.append(requester)
        proxy._mark_dispatched()

    def _dispatch(self, proxy: _FairResult, func, args: Tuple[Any, ...]) -> None:
        try:
            self._pool.ensure().apply_async(
                func,
                args,
                callback=lambda value, p=proxy: self._done(p, value=value),
                error_callback=lambda error, p=proxy: self._done(p, error=error),
            )
        except Exception as error:
            # Pool closed or spawn failed: fail this task (which keeps the
            # pump draining) so every queued proxy resolves rather than hangs.
            self._done(proxy, error=error)

    def give_up(self, proxy: _FairResult) -> None:
        """Free the in-flight slot of a task whose waiter timed out.

        The waiter retries or runs the task itself, so a hung worker must
        not keep holding the slot: with every worker hung, the tasks queued
        behind it would otherwise never be dispatched and their waiters
        would never time out. A late result is dropped (see :meth:`_done`).
        """
        with self._lock:
            if proxy not in self._dispatched:
                return
            self._dispatched.discard(proxy)
            self._inflight -= 1
        self._pump()

    def _done(
        self, proxy: _FairResult, value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if proxy not in self._dispatched:
                # Abandoned by a rebuild or given up by its waiter; a
                # straggler callback must not double-decrement the slot count.
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
    """A rebuildable process pool behind a fair dispatcher.

    Thread-safety: one pool is shared by every concurrent request of a
    serve daemon, so the lifecycle (:meth:`ensure`/:meth:`rebuild`/
    :meth:`close`) and the calibration cache are guarded by an instance
    lock. The lock is never held across a fork or a worker
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

    def apply_async(
        self, func, args: Tuple[Any, ...] = (), *, requester: Any,
        urgent: bool = False,
    ):
        """Submit one task in ``requester``'s lane.

        It reaches the pool in round-robin merge order across all active
        requesters, so concurrent checks share the workers fairly instead
        of first-submitter-takes-all. An ``urgent`` task (a retry) is
        dispatched at once.
        """
        return self._dispatcher.submit(requester, func, args, urgent=urgent)

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (empty before first use)."""
        with self._lock:
            if self._pool is None:
                return []
            return sorted(proc.pid for proc in self._pool._pool)

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
        # a concurrent request's ensure() bookkeeping.
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
        """Terminate the workers, keep the pool: the restart-ladder hook.

        The next :meth:`ensure` respawns a fresh generation. Fair-dispatched
        tasks the dead generation was running are failed immediately (see
        :meth:`_FairDispatcher.abandon`) so their waiters hit the retry
        ladder instead of a full task timeout.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self._dispatcher.abandon()

    def close(self) -> None:
        """Terminate the workers for good (idempotent, terminal)."""
        with self._lock:
            self._closed = True
        self.rebuild()

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

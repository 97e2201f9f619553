"""Zero-pickle array transport between processes via shared memory.

The multiprocess backend ships packed edge/corner/rect buffers — large,
contiguous NumPy arrays — to shard workers. Pickling them would copy every
byte through a pipe; instead the parent stages all of a rule's arrays into
one :class:`multiprocessing.shared_memory.SharedMemory` block (an
:class:`ShmArena`) and sends only tiny :class:`ArrayRef` descriptors
(block name, dtype, shape, byte offset). Workers map the block once and
materialise read-only views at the recorded offsets.

Fallback: tiny arrays (below :data:`INLINE_THRESHOLD` bytes) and platforms
without ``multiprocessing.shared_memory``, or where it fails, degrade to
carrying the raw bytes inside the descriptor — same API, just pickled.

Lifecycle: the parent ``seal()``s an arena before submitting tasks that
reference it and ``dispose()``s it once every task's result has been
collected (POSIX keeps the mapping alive for already-attached workers even
after the unlink). Workers keep a small LRU of attached blocks so a pool
re-serves a rule's shards without re-mapping.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..util import faults

try:  # pragma: no cover - stdlib, but keep the module importable anywhere
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "ArrayRef",
    "ShmArena",
    "attached_block_count",
    "release_attachments",
    "shm_enabled",
]

#: Arrays smaller than this are pickled inline — a shared-memory round trip
#: (create, map, unlink) costs more than copying a few hundred bytes.
INLINE_THRESHOLD = 512

#: Workers keep at most this many blocks mapped (LRU) between tasks.
ATTACH_CACHE_SIZE = 8

_ALIGN = 64


def shm_enabled() -> bool:
    """This platform has the shared-memory transport."""
    return _shared_memory is not None


@dataclasses.dataclass
class ArrayRef:
    """A picklable reference to one ndarray.

    A view into a shared block (``block``/``offset`` set) or the raw bytes
    themselves (``data`` set, the inline fallback).
    """

    dtype: str
    shape: Tuple[int, ...]
    block: Optional[str] = None
    offset: int = 0
    data: Optional[bytes] = None

    def resolve(self) -> np.ndarray:
        """Materialise the array in this process (read-only view or copy)."""
        if self.block is None:
            assert self.data is not None
            array = np.frombuffer(self.data, dtype=np.dtype(self.dtype))
        else:
            count = int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1
            shm = _attach(self.block)
            array = np.frombuffer(
                shm.buf, dtype=np.dtype(self.dtype), count=count, offset=self.offset
            )
        array = array.reshape(self.shape)
        array.flags.writeable = False
        return array


class ShmArena:
    """Parent-side staging area: many arrays, one shared block.

    ``stage()`` arrays while building a rule's task payloads, ``seal()``
    once before submission (creates the block and copies the bytes in),
    ``dispose()`` after every task result is home.
    """

    def __init__(self, *, use_shm: Optional[bool] = None) -> None:
        self._use_shm = shm_enabled() if use_shm is None else use_shm
        self._staged: List[Tuple[np.ndarray, ArrayRef]] = []
        self._cursor = 0
        self._shm = None
        self._sealed = False

    def stage(self, array: np.ndarray) -> ArrayRef:
        if self._sealed:
            raise RuntimeError("cannot stage into a sealed arena")
        array = np.ascontiguousarray(array)
        if not self._use_shm or array.nbytes < INLINE_THRESHOLD:
            return ArrayRef(str(array.dtype), array.shape, data=array.tobytes())
        # Align each array so the worker-side views keep natural alignment.
        offset = -(-self._cursor // _ALIGN) * _ALIGN
        self._cursor = offset + array.nbytes
        ref = ArrayRef(str(array.dtype), array.shape, block="", offset=offset)
        self._staged.append((array, ref))
        return ref

    def seal(self) -> None:
        """Create the block and copy staged arrays in; refs become valid."""
        if self._sealed:
            return
        self._sealed = True
        if not self._staged:
            return
        try:
            self._shm = _shared_memory.SharedMemory(create=True, size=self._cursor)
        except OSError:
            # /dev/shm unavailable or exhausted: degrade to inline bytes.
            for array, ref in self._staged:
                ref.block, ref.offset = None, 0
                ref.data = array.tobytes()
            self._staged.clear()
            return
        for array, ref in self._staged:
            ref.block = self._shm.name
            dest = np.frombuffer(
                self._shm.buf, dtype=array.dtype, count=array.size, offset=ref.offset
            ).reshape(array.shape)
            dest[...] = array
        self._staged.clear()

    @property
    def nbytes(self) -> int:
        return self._cursor

    def dispose(self) -> None:
        """Close and unlink the block (attached workers keep their mapping)."""
        self._staged.clear()
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double dispose
                pass
            self._shm = None


# -- worker-side attachment cache -------------------------------------------

_attached: Dict[str, object] = {}

#: Whether attaching must undo the resource tracker's registration. True
#: only when this process runs its *own* tracker (spawn children): there,
#: attach-time registration would make the tracker warn about — and try to
#: unlink — blocks the parent owns. Fork children inherit the parent's
#: tracker, where attach-time registration is a set no-op and an unregister
#: would wrongly erase the parent's own entry. Decided at first attach,
#: *before* the attach itself starts a tracker.
_unregister_on_attach: Optional[bool] = None


def _tracker_fd_inherited() -> bool:
    try:  # pragma: no cover - CPython implementation detail
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._fd is not None
    except Exception:  # pragma: no cover
        return False


def _attach(name: str):
    """Map a shared block by name, LRU-cached across tasks."""
    global _unregister_on_attach
    if faults.should_fire(faults.SHM_ATTACH_FAIL, name):
        raise OSError(f"injected shm attach failure for block {name!r}")
    if _unregister_on_attach is None:
        _unregister_on_attach = not _tracker_fd_inherited()
    shm = _attached.pop(name, None)
    if shm is None:
        shm = _shared_memory.SharedMemory(name=name)
        if _unregister_on_attach:
            # Ownership stays with the parent; without this, the child's
            # tracker would warn about and unlink the parent's blocks.
            try:  # pragma: no cover - CPython implementation detail
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
    _attached[name] = shm  # re-insert: most recently used (dicts keep order)
    while len(_attached) > ATTACH_CACHE_SIZE:
        old = _attached.pop(next(iter(_attached)))
        try:
            old.close()
        except Exception:  # pragma: no cover
            pass
    return shm


def attached_block_count() -> int:
    return len(_attached)


def release_attachments() -> None:
    """Unmap every cached block (worker shutdown hook)."""
    for shm in _attached.values():
        try:
            shm.close()
        except Exception:  # pragma: no cover
            pass
    _attached.clear()

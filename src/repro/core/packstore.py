"""Persistent content-addressed pack store with zero-copy memmap reads.

The parallel mode's pre-kernel work — hierarchical edge/corner/rect
packing into fused row buffers — depends only on the layout geometry and
the partition parameters, never on how many times a deck is re-checked.
Iterative DRC flows re-run the checker dozens of times per layout; this
module lets every ``--mode parallel`` run after the first skip that work.
Only that mode reads or writes entries: the sequential mode and every
windowed or incremental re-check never reach the store (nor load NumPy
for it), and the adaptive row partition is recomputed in every process —
it is Θ(k + N) over the top-level MBRs, cheaper than an entry round trip.

Entries are content-addressed: the key is a SHA-256 over

* a **per-layer geometry digest** (:func:`layer_geometry_digest`) that walks
  the cell definitions reachable from the top cell and hashes every
  polygon's vertex array and every reference's placement parameters — it
  scales with the *hierarchical* size of the layout, not the flat polygon
  count, mirroring the paper's compressed representation;
* the **pack kind** (``"fused-edges"``, ``"fused-corners"``, ``"rect-rows"``);
* every **parameter that shapes the packed bytes** (``use_rows`` and the
  partition margin) plus a format-version salt.

Any geometry edit, threshold change, or layer swap therefore produces a
different key — strict invalidation by construction, no timestamps.

One entry is one file ``<root>/<key[:2]>/<key>.pack``::

    b"RPACK001" | header_len (u64 le) | JSON header | pad to 64 | payload

The JSON header records a ``meta`` dict and, per array, name/dtype/shape
and a byte offset **relative to the payload start** (so the header's own
length never feeds back into the offsets). Reads go through one
``np.memmap`` of the whole file; decoded arrays are read-only zero-copy
views into the mapping.

Robustness:

* **writes** land in a temp file (pid + random suffix) that is fsynced and
  ``os.replace``d into place — concurrent writers race benignly (last
  rename wins, every intermediate state is a complete file);
* **reads** validate magic, header JSON, dtypes and payload bounds; any
  mismatch deletes the entry and reports a miss, so corruption degrades to
  the cold path and the entry is rewritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # NumPy loads with the first array codec call, not with the module
    import numpy as np

from ..util import faults
from ..util.logging import get_logger

_logger = get_logger("packstore")

__all__ = [
    "FORMAT_VERSION",
    "PackStore",
    "layer_digests",
    "layer_geometry_digest",
    "resolve_store",
    "store_key",
]

#: Bump whenever the on-disk layout or any serialization codec changes;
#: it is hashed into every key, so old entries simply stop matching.
FORMAT_VERSION = 1

MAGIC = b"RPACK001"

_ALIGN = 64

#: Environment variable naming a cache directory (CLI ``--cache-dir`` wins).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def remove_orphans(directory: Optional[str]) -> int:
    """Remove the ``*.tmp`` files that writers killed between ``mkstemp``
    and ``os.replace`` left in ``directory``; returns how many went."""
    try:
        names = os.listdir(directory) if directory else []
    except OSError:
        return 0
    removed = 0
    for name in names:
        if name.endswith(".tmp"):
            try:
                os.remove(os.path.join(directory, name))
                removed += 1
            except OSError:
                pass
    return removed


def _corrupt_entry(path: str) -> None:
    """Deterministically clobber an entry's header (fault injection only).

    Overwriting the ``header_len`` word makes the next read fail its bounds
    check, so the store's *real* corruption handling — count, warn, drop,
    rebuild cold, rewrite — runs, not a simulation of it.
    """
    try:
        with open(path, "r+b") as handle:
            handle.seek(len(MAGIC))
            handle.write(b"\xff" * 8)
    except OSError:  # pragma: no cover - raced with a concurrent drop
        pass


# ---------------------------------------------------------------------------
# Content keys


def store_key(*parts: Any) -> str:
    """SHA-256 content key over ``repr``-encoded parts plus the format salt.

    Parts must have stable, value-based reprs (strings, ints, bools, tuples
    of those, hex digests). The format version is always mixed in so a
    serialization change invalidates every existing entry.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{FORMAT_VERSION}".encode("ascii"))
    for part in parts:
        hasher.update(b"\x1f")
        hasher.update(repr(part).encode("utf-8"))
    return hasher.hexdigest()


def layer_geometry_digest(tree, layer: int) -> str:
    """Digest of everything on ``layer`` reachable from the tree's top cell.

    Walks cell *definitions* (each visited once, in sorted-name order for
    determinism), hashing per cell its local polygons' vertex coordinates
    and the placement parameters of every reference that can reach geometry
    on the layer. References into layer-free subtrees are pruned — adding a
    cell that never touches the layer does not invalidate its entries.
    """
    layout = tree.layout
    top = tree.top.name
    reachable = sorted(_reachable_cells(tree, layer))
    hasher = hashlib.sha256()
    hasher.update(f"layer:{layer};top:{top};".encode("utf-8"))
    for name in reachable:
        cell = layout.cell(name)
        hasher.update(f"cell:{name};".encode("utf-8"))
        rings = cell.rings(layer)
        if rings:
            # Per ring ``poly:`` + its native-order int64 coordinates: the
            # bytes hashed since the first format, read from the ring buffer.
            hasher.update(b"poly:" + b"poly:".join(rings.ring_bytes()))
        for ref in cell.references:
            if tree.has_layer(ref.cell_name, layer):
                hasher.update(b"ref:")
                hasher.update(
                    repr((ref.cell_name, ref.transform, ref.repetition)).encode("utf-8")
                )
    return hasher.hexdigest()


def layer_digests(tree, layers: Sequence[int], previous=None) -> Dict[int, str]:
    """:func:`layer_geometry_digest` of each of ``layers``.

    ``previous`` is another version's ``(tree, digests)``. A layer's digest
    is taken from it when it provably equals a fresh one: both versions have
    the same cells and top, and every cell either has equal source tokens in
    the two trees (the same bytes: the same rings on every layer and the
    same references) or the same references and the same rings on that
    layer. Then every subtree MBR of the layer, the reachable set and every
    hashed byte are equal. Every other layer is computed.
    """
    edited = _edited_cells(tree, previous[0]) if previous is not None else None
    known = previous[1] if previous is not None else {}
    return {
        layer: known[layer]
        if edited is not None
        and layer in known
        and all(_same_rings(cell.rings(layer), old.rings(layer)) for cell, old in edited)
        else layer_geometry_digest(tree, layer)
        for layer in layers
    }


def _edited_cells(tree, old_tree) -> Optional[List[Tuple[Any, Any]]]:
    """``(cell, old cell)`` for every cell whose tokens differ between the two
    trees, or None where a digest could differ beyond those cells' rings
    (another cell set or top, or changed references)."""
    if tree.top.name != old_tree.top.name or tree.tokens.keys() != old_tree.tokens.keys():
        return None
    edited = []
    for name, token in tree.tokens.items():
        if token is None or token != old_tree.tokens[name]:
            cell, old = tree.layout.cells[name], old_tree.layout.cells[name]
            if cell.references != old.references:
                return None
            edited.append((cell, old))
    return edited


def _same_rings(rings, old_rings) -> bool:
    """Whether two (cell, layer) buffers hash alike: both empty, or the same rings."""
    if not rings or not old_rings:
        return not rings and not old_rings
    return rings.same_rings(old_rings)


def _reachable_cells(tree, layer: int) -> Iterator[str]:
    """Names of cells reachable from top that carry geometry on ``layer``."""
    seen = set()
    stack = [tree.top.name]
    while stack:
        name = stack.pop()
        if name in seen or not tree.has_layer(name, layer):
            continue
        seen.add(name)
        yield name
        for ref in tree.layout.cell(name).references:
            if ref.cell_name not in seen:
                stack.append(ref.cell_name)


# ---------------------------------------------------------------------------
# The store


class PackStore:
    """Content-addressed directory of memmap-readable pack entries.

    Thread-safety: the entry read/write paths are already safe to share —
    every write is build-aside + atomic ``os.replace`` and readers memmap
    whichever complete file they find. The in-memory hit/miss counters are
    deliberately lock-free ``+=`` updates (informational; a lost increment
    under two concurrent requests at worst under-counts a stat), but the
    sidecar flush in :meth:`persist_counters` is locked: its delta
    computation against ``_persisted`` is a read-modify-write that two
    handler threads closing backends at once would otherwise double-count.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._persisted: Dict[str, int] = {}
        self._persist_lock = threading.Lock()

    # -- paths --------------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pack")

    def _entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".pack"):
                    yield os.path.join(shard_dir, name)

    # -- read path ----------------------------------------------------------

    def load(self, key: str, decode: Callable[[Dict[str, np.ndarray], Dict[str, Any]], Any]) -> Optional[Any]:
        """Decode the entry for ``key`` or return None (counted as a miss).

        ``decode(arrays, meta)`` receives read-only memmap views; whatever
        it returns is handed back verbatim. A decode error is treated like
        corruption: the entry is dropped so the cold path rewrites it.
        """
        loaded = self._read(key)
        if loaded is None:
            self.misses += 1
            return None
        arrays, meta, nbytes = loaded
        try:
            value = decode(arrays, meta)
        except Exception as error:
            self._corrupted(key, f"decode failed: {error!r}")
            self.misses += 1
            return None
        self.hits += 1
        self.bytes_read += nbytes
        return value

    def _corrupted(self, key: str, reason: str) -> None:
        """Count and drop a corrupt entry (visible, not a silent miss)."""
        self.corrupt += 1
        _logger.warning(
            "dropping corrupt pack-store entry %s (%s); it will be "
            "rebuilt cold and rewritten", key[:12], reason,
        )
        self._drop(key)

    def _read(self, key: str) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any], int]]:
        path = self._entry_path(key)
        if os.path.exists(path) and faults.should_fire(faults.PACKSTORE_CORRUPT):
            _corrupt_entry(path)
        import numpy as np

        try:
            raw = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError):
            return None
        try:
            if len(raw) < 16 or bytes(raw[:8]) != MAGIC:
                raise ValueError("bad magic")
            header_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
            if header_len <= 0 or 16 + header_len > len(raw):
                raise ValueError("bad header length")
            header = json.loads(bytes(raw[16 : 16 + header_len]).decode("utf-8"))
            if header.get("version") != FORMAT_VERSION:
                raise ValueError("format version mismatch")
            data_start = _align(16 + header_len)
            arrays: Dict[str, np.ndarray] = {}
            for spec in header["arrays"]:
                dtype = np.dtype(str(spec["dtype"]))
                shape = tuple(int(d) for d in spec["shape"])
                offset = data_start + int(spec["offset"])
                nbytes = int(spec["nbytes"])
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                if count * dtype.itemsize != nbytes or offset + nbytes > len(raw):
                    raise ValueError("payload out of bounds")
                view = raw[offset : offset + nbytes].view(dtype).reshape(shape)
                view.flags.writeable = False
                arrays[str(spec["name"])] = view
            return arrays, dict(header.get("meta", {})), len(raw)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as error:
            del raw
            self._corrupted(key, str(error))
            return None

    def _drop(self, key: str) -> None:
        try:
            os.remove(self._entry_path(key))
        except FileNotFoundError:
            pass  # a concurrent reader dropped (or a clear() removed) it first
        except OSError:  # pragma: no cover - read-only store
            pass

    # -- write path ---------------------------------------------------------

    def save(self, key: str, arrays: Dict[str, np.ndarray], meta: Optional[Dict[str, Any]] = None) -> None:
        """Write an entry atomically; I/O failures are swallowed (the store
        is an accelerator, never a correctness dependency)."""
        import numpy as np

        specs = []
        cursor = 0
        ordered: List[Tuple[np.ndarray, int]] = []
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset = _align(cursor)
            cursor = offset + array.nbytes
            specs.append(
                {
                    "name": name,
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                    "offset": offset,
                    "nbytes": array.nbytes,
                }
            )
            ordered.append((array, offset))
        header = json.dumps(
            {"version": FORMAT_VERSION, "meta": meta or {}, "arrays": specs},
            sort_keys=True,
        ).encode("utf-8")
        data_start = _align(16 + len(header))
        total = data_start + cursor
        path = self._entry_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{key[:8]}.{os.getpid()}.", suffix=".tmp", dir=os.path.dirname(path)
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(MAGIC)
                    handle.write(np.uint64(len(header)).tobytes())
                    handle.write(header)
                    handle.write(b"\x00" * (data_start - 16 - len(header)))
                    for array, offset in ordered:
                        handle.seek(data_start + offset)
                        handle.write(array.tobytes())
                    handle.truncate(total)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self.bytes_written += total

    # -- maintenance / introspection ----------------------------------------

    def entries(self) -> List[Tuple[str, int]]:
        """(key, nbytes) for every entry on disk."""
        out = []
        for path in self._entry_paths():
            try:
                out.append((os.path.basename(path)[: -len(".pack")], os.path.getsize(path)))
            except OSError:  # pragma: no cover - raced with clear()
                pass
        return out

    @property
    def total_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self.entries())

    def clear(self) -> int:
        """Remove every entry (and the counter sidecar); returns count removed.

        Orphaned ``*.tmp`` files in the shard directories go too, uncounted
        (see :func:`remove_orphans`).
        """
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.remove(path)
                removed += 1
            except OSError:  # pragma: no cover
                pass
        if os.path.isdir(self.root):
            for shard in os.listdir(self.root):
                remove_orphans(os.path.join(self.root, shard))
        try:
            os.remove(os.path.join(self.root, "counters.json"))
        except OSError:
            pass
        return removed

    # -- persistent hit/miss counters ---------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def persist_counters(self) -> None:
        """Merge this process's counter deltas into ``counters.json``.

        Best-effort and idempotent: only the delta since the previous flush
        is added, so backends can call this from ``close()`` without double
        counting. The sidecar feeds ``repro cache stats`` — informational,
        racing writers at worst under-count.
        """
        with self._persist_lock:
            current = self.counters()
            delta = {
                name: value - self._persisted.get(name, 0)
                for name, value in current.items()
            }
            if not any(delta.values()):
                return
            path = os.path.join(self.root, "counters.json")
            try:
                os.makedirs(self.root, exist_ok=True)
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        totals = json.load(handle)
                    if not isinstance(totals, dict):
                        totals = {}
                except (OSError, ValueError):
                    totals = {}
                for name, value in delta.items():
                    totals[name] = int(totals.get(name, 0)) + value
                fd, tmp = tempfile.mkstemp(
                    prefix=".counters.", suffix=".tmp", dir=self.root
                )
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(totals, handle, sort_keys=True)
                os.replace(tmp, path)
            except OSError:
                return
            self._persisted = current

    def persisted_counters(self) -> Dict[str, int]:
        """Totals accumulated across all runs (``repro cache stats``)."""
        try:
            with open(os.path.join(self.root, "counters.json"), "r", encoding="utf-8") as handle:
                totals = json.load(handle)
            if isinstance(totals, dict):
                return {str(k): int(v) for k, v in totals.items()}
        except (OSError, ValueError):
            pass
        return {}


def resolve_store(options) -> Optional[PackStore]:
    """The store configured by ``options``, or None for the pure cold path.

    Caching engages only when enabled *and* a directory is named (via
    ``EngineOptions.cache_dir`` or ``REPRO_CACHE_DIR``) — with no directory
    configured the engine runs exactly the historical code path.
    """
    if not getattr(options, "use_cache", True):
        return None
    root = getattr(options, "cache_dir", None) or os.environ.get(CACHE_DIR_ENV)
    if not root:
        return None
    return PackStore(root)

"""The cache directory and the content keys of what is stored in it.

A cache directory (``--cache-dir`` / ``$REPRO_CACHE_DIR``) holds finished
reports under ``reports/`` (:mod:`repro.core.reportcache`). A report's key
is a SHA-256 (:func:`store_key`) over the deck digest and a **per-layer
geometry digest** (:func:`layer_geometry_digest`) of every layer. The
digest walks the cell definitions reachable from the top cell and hashes
every polygon's vertex array and every reference's placement parameters,
so it scales with the *hierarchical* size of the layout, not the flat
polygon count, mirroring the paper's compressed representation. Any
geometry edit or layer swap therefore produces a different key: strict
invalidation by construction, no timestamps.

Packed device buffers are not stored: every parallel check packs them
afresh, as the paper does (§IV–V). Directories written by older builds may
still hold ``<xx>/<key>.pack`` files and a ``counters.json``; nothing reads
them, and they can be deleted.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FORMAT_VERSION",
    "PackStore",
    "layer_digests",
    "layer_geometry_digest",
    "resolve_store",
    "store_key",
]

#: Hashed into every key, so a change to what a key stands for can retire
#: every existing entry; stored reports' keys were made under version 1.
FORMAT_VERSION = 1

#: Environment variable naming a cache directory (CLI ``--cache-dir`` wins).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


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


# ---------------------------------------------------------------------------
# Content keys


def store_key(*parts: Any) -> str:
    """SHA-256 content key over ``repr``-encoded parts plus the format salt.

    Parts must have stable, value-based reprs (strings, ints, bools, tuples
    of those, hex digests). The format version is always mixed in; it stays
    1, or every report stored so far stops matching.
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
# The cache directory


class PackStore:
    """A cache directory: :class:`~repro.core.reportcache.ReportCache` keeps
    its reports under ``<root>/reports``. (The name predates the removal of
    the stored packs; ``benchmarks/ledger`` imports it under this name.)"""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)


def resolve_store(options) -> Optional[PackStore]:
    """The cache directory configured by ``options``, or None for the pure
    cold path.

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

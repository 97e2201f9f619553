"""STR-packed R-tree (paper §I: "hierarchies of bounding volumes like
r-tree and its variants").

A static bulk-loaded R-tree using Sort-Tile-Recursive packing: entries are
sorted by x-center into vertical slices, each slice sorted by y-center and
cut into nodes of ``fanout`` entries. Queries descend the tree, pruning
nodes whose MBR misses the window — the same BVH idea the engine's
hierarchy tree applies to the *design* hierarchy, here applied to an
arbitrary rectangle population. Only the spatial-index ablation
(``bench_ablation_spatial_index.py``) uses it; the engine does not.
"""

from __future__ import annotations

import math
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.geometry import EMPTY_RECT, Rect, union_all

T = TypeVar("T")


class _Node(Generic[T]):
    __slots__ = ("mbr", "children", "entries")

    def __init__(self) -> None:
        self.mbr: Rect = EMPTY_RECT
        self.children: List["_Node[T]"] = []
        self.entries: List[Tuple[Rect, T]] = []  # leaves only

    @property
    def is_leaf(self) -> bool:
        return not self.children


class RTree(Generic[T]):
    """Static R-tree over ``(rect, item)`` pairs, STR bulk-loaded."""

    def __init__(
        self, entries: Sequence[Tuple[Rect, T]], *, fanout: int = 16
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be at least 2, got {fanout}")
        self.fanout = fanout
        clean = [(rect, item) for rect, item in entries if not rect.is_empty]
        self._size = len(clean)
        self._root = self._build_leaves(clean)

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        height = 0
        node = self._root
        while node is not None and not node.is_leaf:
            node = node.children[0]
            height += 1
        return height + 1 if node is not None else 0

    # -- construction (Sort-Tile-Recursive) ---------------------------------

    def _build_leaves(self, entries: List[Tuple[Rect, T]]) -> Optional[_Node[T]]:
        if not entries:
            return None
        leaves: List[_Node[T]] = []
        for block in _str_tiles(entries, self.fanout, key=lambda e: e[0]):
            leaf: _Node[T] = _Node()
            leaf.entries = block
            leaf.mbr = union_all(rect for rect, _ in block)
            leaves.append(leaf)
        return self._pack_upward(leaves)

    def _pack_upward(self, nodes: List[_Node[T]]) -> _Node[T]:
        while len(nodes) > 1:
            parents: List[_Node[T]] = []
            for block in _str_tiles(nodes, self.fanout, key=lambda n: n.mbr):
                parent: _Node[T] = _Node()
                parent.children = block
                parent.mbr = union_all(child.mbr for child in block)
                parents.append(parent)
            nodes = parents
        return nodes[0]

    # -- queries ---------------------------------------------------------------

    def query(self, window: Rect) -> List[T]:
        """All items whose rects overlap the closed ``window``."""
        out: List[T] = []
        if self._root is None or window.is_empty:
            return out
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.mbr.overlaps(window):
                continue
            if node.is_leaf:
                out.extend(item for rect, item in node.entries if rect.overlaps(window))
            else:
                stack.extend(node.children)
        return out

    def query_count(self, window: Rect) -> Tuple[int, int]:
        """(hits, nodes visited) — instrumentation for the ablation."""
        if self._root is None or window.is_empty:
            return 0, 0
        hits = 0
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            if not node.mbr.overlaps(window):
                continue
            if node.is_leaf:
                hits += sum(1 for rect, _ in node.entries if rect.overlaps(window))
            else:
                stack.extend(node.children)
        return hits, visited

    def overlapping_pairs(self) -> List[Tuple[T, T]]:
        """All overlapping item pairs via per-entry window queries.

        The R-tree alternative to the sweepline's pair reporting; each
        unordered pair appears once (items must be orderable).
        """
        pairs: List[Tuple[T, T]] = []
        if self._root is None:
            return pairs
        for rect, item in self._iter_entries(self._root):
            for other in self.query(rect):
                if other > item:
                    pairs.append((item, other))
        return pairs

    def _iter_entries(self, node: _Node[T]):
        if node.is_leaf:
            yield from node.entries
        else:
            for child in node.children:
                yield from self._iter_entries(child)


def _str_tiles(items: list, fanout: int, *, key) -> List[list]:
    """Sort-Tile-Recursive grouping of items into blocks of <= fanout."""
    n = len(items)
    num_blocks = math.ceil(n / fanout)
    slices = math.ceil(math.sqrt(num_blocks))
    per_slice = slices * fanout
    by_x = sorted(items, key=lambda it: key(it).center.x)
    blocks: List[list] = []
    for s in range(0, n, per_slice):
        chunk = sorted(by_x[s : s + per_slice], key=lambda it: key(it).center.y)
        for b in range(0, len(chunk), fanout):
            blocks.append(chunk[b : b + fanout])
    return blocks

"""Centered interval tree (paper §IV-D).

The paper's sequential mode uses an interval tree as the status structure of
the MBR sweepline "instead of segment trees for implementation simplicity".
As described there, an interval is stored in the highest node whose key lies
inside it, and every node keeps its intervals in two lists — one sorted by
left endpoints, one by right endpoints — which is exactly what makes the
three-way overlap query efficient:

* query right of the node key: only intervals whose **right** endpoint
  reaches back to the query can overlap — walk the right-sorted list;
* query left of the node key: symmetric on **left** endpoints;
* query straddling the key: every interval at the node overlaps.

The skeleton is built once over the (sorted, de-duplicated) candidate keys —
the sweepline knows all interval endpoints up front — so no rebalancing is
needed; ``insert``/``remove`` only touch node lists.
"""

from __future__ import annotations

import bisect
from typing import Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T", bound=Hashable)


class _Node(Generic[T]):
    __slots__ = ("key", "left", "right", "by_lo", "by_hi", "size")

    def __init__(self, key: int) -> None:
        self.key = key
        self.left: Optional["_Node[T]"] = None
        self.right: Optional["_Node[T]"] = None
        # by_lo: (lo, hi, item) ascending by lo; by_hi: (-hi, lo, item) so the
        # list is *descending* in hi while bisect still works ascending.
        self.by_lo: List[Tuple[int, int, T]] = []
        self.by_hi: List[Tuple[int, int, T]] = []
        self.size = 0  # intervals stored in this subtree


class IntervalTree(Generic[T]):
    """Static-skeleton interval tree over a known key domain.

    Parameters
    ----------
    keys:
        Candidate keys; every interval later inserted must contain at least
        one of them (inserting an interval ``[lo, hi]`` whose ``lo`` was
        passed as a key always satisfies this).
    """

    def __init__(self, keys: Sequence[int]) -> None:
        unique = sorted(set(keys))
        self._root = self._build(unique, 0, len(unique))
        self._count = 0

    @classmethod
    def for_intervals(cls, intervals: Sequence[Tuple[int, int]]) -> "IntervalTree[T]":
        """Skeleton sized for a known interval population (uses left endpoints)."""
        return cls([lo for lo, _ in intervals])

    def _build(self, keys: Sequence[int], lo: int, hi: int) -> Optional[_Node[T]]:
        if lo >= hi:
            return None
        mid = (lo + hi) // 2
        node: _Node[T] = _Node(keys[mid])
        node.left = self._build(keys, lo, mid)
        node.right = self._build(keys, mid + 1, hi)
        return node

    def __len__(self) -> int:
        return self._count

    # -- updates -------------------------------------------------------------

    def insert(self, lo: int, hi: int, item: T) -> None:
        """Store ``item`` with closed interval ``[lo, hi]``."""
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        node = self._root
        while node is not None:
            node.size += 1
            key = node.key
            if hi < key:
                node = node.left
            elif lo > key:
                node = node.right
            else:
                bisect.insort(node.by_lo, (lo, hi, item))
                bisect.insort(node.by_hi, (-hi, lo, item))
                self._count += 1
                return
        self._resize(lo, hi, -1)
        raise ValueError(f"interval [{lo}, {hi}] contains no key of this tree's skeleton")

    def remove(self, lo: int, hi: int, item: T) -> None:
        """Remove a previously inserted interval; raises KeyError if absent."""
        node = self._root
        while node is not None:
            node.size -= 1
            key = node.key
            if hi < key:
                node = node.left
            elif lo > key:
                node = node.right
            else:
                try:
                    self._remove_from_node(node, lo, hi, item)
                except KeyError:
                    self._resize(lo, hi, 1)
                    raise
                self._count -= 1
                return
        self._resize(lo, hi, 1)
        raise KeyError(f"interval [{lo}, {hi}] ({item!r}) not in tree")

    def _resize(self, lo: int, hi: int, delta: int) -> None:
        """Undo a failed update: add ``delta`` to the subtree sizes on the
        search path of ``[lo, hi]``."""
        node = self._root
        while node is not None:
            node.size += delta
            key = node.key
            if hi < key:
                node = node.left
            elif lo > key:
                node = node.right
            else:
                return

    @staticmethod
    def _remove_from_node(node: _Node[T], lo: int, hi: int, item: T) -> None:
        entry_lo = (lo, hi, item)
        i = bisect.bisect_left(node.by_lo, entry_lo)
        if i >= len(node.by_lo) or node.by_lo[i] != entry_lo:
            raise KeyError(f"interval [{lo}, {hi}] ({item!r}) not in tree")
        node.by_lo.pop(i)
        entry_hi = (-hi, lo, item)
        j = bisect.bisect_left(node.by_hi, entry_hi)
        node.by_hi.pop(j)

    # -- queries -------------------------------------------------------------

    def query(self, qlo: int, qhi: int) -> List[T]:
        """All items whose intervals overlap the closed query ``[qlo, qhi]``."""
        if qlo > qhi:
            raise ValueError(f"inverted query [{qlo}, {qhi}]")
        out: List[T] = []
        self._query(self._root, qlo, qhi, out)
        return out

    def _query(self, node: Optional[_Node[T]], qlo: int, qhi: int, out: List[T]) -> None:
        while node is not None and node.size > 0:
            if qhi < node.key:
                # Only intervals reaching left to qhi can match: lo <= qhi.
                for lo, _, item in node.by_lo:
                    if lo > qhi:
                        break
                    out.append(item)
                node = node.left
            elif qlo > node.key:
                # Only intervals reaching right to qlo can match: hi >= qlo.
                for neg_hi, _, item in node.by_hi:
                    if -neg_hi < qlo:
                        break
                    out.append(item)
                node = node.right
            else:
                # Node key inside the query: every stored interval overlaps.
                out.extend(item for _, _, item in node.by_lo)
                self._query(node.left, qlo, qhi, out)
                node = node.right

    def stab(self, value: int) -> List[T]:
        """All items whose intervals contain ``value``."""
        return self.query(value, value)

    def items(self) -> List[Tuple[int, int, T]]:
        """All stored ``(lo, hi, item)`` triples (no particular order)."""
        out: List[Tuple[int, int, T]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None or node.size == 0:
                continue
            out.extend(node.by_lo)
            stack.append(node.left)
            stack.append(node.right)
        return out

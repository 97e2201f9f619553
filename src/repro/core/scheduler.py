"""Work planning for the worker pool: row shards and fair-share merging.

:func:`greedy_balanced_shards` and :func:`shard_count` cut a rule's rows
into size-balanced shards for the multiprocess backend (the paper's
row-skew problem, now across cores); :func:`round_robin_interleave` merges
several requesters' task lists so no one of them monopolizes a shared
queue.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

# ---------------------------------------------------------------------------
# Shard planning (multi-core row sharding)
# ---------------------------------------------------------------------------

#: How many shards each worker gets on average. Oversubscription keeps the
#: pool's shared task queue non-empty so idle workers steal the remaining
#: shards instead of waiting on a skewed one (the paper's row-skew problem,
#: now across cores).
SHARD_OVERSUBSCRIPTION = 4


def greedy_balanced_shards(
    weights: Sequence[int], num_shards: int
) -> List[List[int]]:
    """Greedy size-balanced assignment of weighted items to shards (LPT).

    Items (indices into ``weights``) are taken heaviest-first and each lands
    in the currently lightest shard — the classic longest-processing-time
    heuristic, guaranteeing a makespan within 4/3 of optimal. Zero-weight
    items are dropped (an empty row produces no work). The result is
    deterministic: ties break on item index, then shard index; shards are
    returned heaviest-first (the submission order that lets a work-stealing
    queue drain the big shards while small ones backfill), each shard's
    members sorted ascending.
    """
    if num_shards < 1:
        raise ValueError(f"need at least 1 shard, got {num_shards}")
    items = sorted(
        (i for i, w in enumerate(weights) if w > 0),
        key=lambda i: (-weights[i], i),
    )
    if not items:
        return []
    if num_shards == 1 or len(items) == 1:
        # Degenerate plans skip the heap: one shard holding every weighted
        # item (callers treat a single-shard plan as "run it in-process").
        return [sorted(items)]
    num_shards = min(num_shards, len(items))
    loads: List = [(0, shard, []) for shard in range(num_shards)]
    heapq.heapify(loads)
    for item in items:
        load, shard, members = heapq.heappop(loads)
        members.append(item)
        heapq.heappush(loads, (load + weights[item], shard, members))
    shards = [
        (load, shard, sorted(members)) for load, shard, members in loads if members
    ]
    shards.sort(key=lambda entry: (-entry[0], entry[1]))
    return [members for _, _, members in shards]


def shard_count(num_items: int, jobs: int) -> int:
    """How many shards to cut ``num_items`` weighted items into for ``jobs``
    workers: oversubscribed for stealing, never more shards than items."""
    if jobs < 1:
        raise ValueError(f"need at least 1 job, got {jobs}")
    return max(1, min(num_items, jobs * SHARD_OVERSUBSCRIPTION))


# ---------------------------------------------------------------------------
# Fair-share interleaving (multi-request pool multiplexing)
# ---------------------------------------------------------------------------


def round_robin_interleave(sequences: Sequence[Sequence]) -> List:
    """Interleave several task sequences one item at a time, round-robin.

    ``[[a1, a2, a3], [b1, b2]]`` becomes ``[a1, b1, a2, b2, a3]``: each
    requester contributes its next item in turn, so a long sequence cannot
    monopolize a shared queue ahead of a short one. Order *within* each
    sequence is preserved — this only decides the merge order, which is why
    a fair-share dispatcher built on it cannot change any requester's own
    result ordering. Empty sequences are skipped; the merge is
    deterministic in the order the sequences are given.
    """
    merged: List = []
    cursors = [iter(seq) for seq in sequences]
    while cursors:
        survivors = []
        for cursor in cursors:
            try:
                merged.append(next(cursor))
            except StopIteration:
                continue
            survivors.append(cursor)
        cursors = survivors
    return merged

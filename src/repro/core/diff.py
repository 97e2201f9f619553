"""Layout diffing: digest-driven dirty layers and minimal dirty regions.

The report store's content keys already prove the point: per-layer
geometry digests are a free dirtiness oracle. This module turns that into
the incremental engine's front end — compare two versions of a layout and
answer, per rule, *where* a re-check must look:

1. **Dirty layers** — :func:`~repro.core.packstore.layer_geometry_digest`
   per layer of both versions; equal digests mean the layer cannot have
   changed anywhere in the hierarchy, so every rule confined to it keeps
   its cached result verbatim.
2. **Dirty rects** — for each dirty layer, a hierarchical walk over the
   cell *definitions* finds the minimal changed geometry: the symmetric
   difference of each cell's local polygon multiset (per changed polygon,
   its MBR) and of its reference multiset (per added/removed/moved
   instance, the placed subtree MBR from the version that carries it).
   Local dirt propagates to the top frame through the references common to
   both versions — AREF grids propagate in compact form via
   :func:`~repro.hierarchy.tree.reference_mbr`, never expanded.
3. **Per-rule regions** — each rule's dirty rects are inflated by its
   :func:`~repro.core.plan.interaction_distance` halo and coalesced into a
   :class:`~repro.spatial.regions.RegionSet`. Rules of clean layers get
   ``None`` (reuse the cached result); globally coupled kinds (coloring)
   get :data:`FULL_RECHECK` when their layer is dirty.

Soundness (the splice depends on it): a violation whose marker does not
overlap a rule's dirty region set is byte-identical between the two
versions. See ``docs/algorithms.md`` §8e for the per-kind argument.
"""

from __future__ import annotations

import dataclasses
import operator
from array import array
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..geometry import EMPTY_RECT, Rect
from ..hierarchy.tree import HierarchyTree, reference_mbr
from ..layout.library import Layout
from ..spatial.regions import RegionSet
from .packstore import layer_digests
from .plan import interaction_distance
from .rules import Rule

__all__ = ["FULL_RECHECK", "LayoutDiff", "diff_layouts", "rule_regions"]


class _FullRecheck:
    """Sentinel: the rule must be fully re-run (no finite dirty region)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FULL_RECHECK"


#: Returned by :meth:`LayoutDiff.regions_for` when a rule's result cannot
#: be spliced and the whole rule must re-run against the new layout.
FULL_RECHECK = _FullRecheck()


@dataclasses.dataclass
class LayoutDiff:
    """The edit between two layout versions, as the incremental engine
    consumes it: per-layer digests plus top-frame dirty region sets."""

    old_digests: Dict[int, str]
    new_digests: Dict[int, str]
    #: Dirty layer -> coalesced top-frame dirty rects (no halo applied).
    dirty: Dict[int, RegionSet]
    #: True when the versions cannot be aligned (different top cells):
    #: everything is considered dirty and every rule re-runs fully.
    full: bool = False
    #: The hierarchy trees the diff was computed on (given or built), so
    #: what runs next on either version need not build another.
    old_tree: Optional[HierarchyTree] = None
    new_tree: Optional[HierarchyTree] = None

    @property
    def is_clean(self) -> bool:
        return not self.full and not self.dirty

    def dirty_layers(self) -> List[int]:
        return sorted(self.dirty)

    def regions_for(
        self, rule: Rule
    ) -> Union[None, _FullRecheck, RegionSet]:
        """Where ``rule`` must be re-checked.

        ``None``
            No involved layer changed — the cached result is exact.
        :data:`FULL_RECHECK`
            The rule is globally coupled (interaction distance ``None``)
            or the diff could not be localised; re-run it completely.
        :class:`RegionSet`
            Re-check these windows and splice into the cached report:
            the dirty rects of every involved layer, inflated by the
            rule's interaction halo.
        """
        if self.full:
            return FULL_RECHECK
        if rule.layer is None:
            involved = self.dirty_layers()  # all-layer rules see every edit
        else:
            involved = [
                layer
                for layer in (rule.layer, rule.other_layer)
                if layer is not None and layer in self.dirty
            ]
        if not involved:
            return None
        halo = interaction_distance(rule)
        if halo is None:
            return FULL_RECHECK
        regions = RegionSet.of(
            [rect for layer in involved for rect in self.dirty[layer].rects]
        )
        return regions.inflated(halo)


# ---------------------------------------------------------------------------
# Cell-level diffing


def _ref_key(ref) -> Tuple:
    """Value identity of one reference (name + placement + repetition)."""
    return (ref.cell_name, ref.transform, ref.repetition)


def _cell_local_dirty(old_cell, new_cell, layer: int) -> List[Rect]:
    """MBRs of the symmetric difference of two cells' local polygons.

    Ring buffers that hold the same coordinates cut the same way are the
    same polygons in the same order, so nothing is built for them. Where
    they differ, the rings of the longest common prefix and suffix are
    equal pairwise and cancel one for one (which leaves every polygon's
    count difference as it was), so only the span between them is looked
    at: rings with equal bytes there cancel the same way, and the polygon
    multisets are formed of what is left.
    """
    old_rings = old_cell.rings(layer) if old_cell else None
    new_rings = new_cell.rings(layer) if new_cell else None
    if old_rings is None and new_rings is None:
        return []
    if old_rings is not None and new_rings is not None and old_rings.same_rings(new_rings):
        return []
    old_count = len(old_rings) if old_rings else 0
    new_count = len(new_rings) if new_rings else 0
    head = tail = 0
    if old_count and new_count:
        head, tail = _common_ends(old_rings, new_rings)
    old_keys = old_rings.ring_bytes(head, old_count - tail) if old_count else []
    new_keys = new_rings.ring_bytes(head, new_count - tail) if new_count else []
    old_polys = Counter(_unmatched(old_rings, head, old_keys, Counter(new_keys)))
    new_polys = Counter(_unmatched(new_rings, head, new_keys, Counter(old_keys)))
    rects: List[Rect] = []
    for polygon, count in old_polys.items():
        if new_polys.get(polygon, 0) != count:
            rects.append(polygon.mbr)
    for polygon, count in new_polys.items():
        if old_polys.get(polygon, 0) != count:
            rects.append(polygon.mbr)
    return rects


def _common_ends(a, b) -> Tuple[int, int]:
    """How many rings lead both buffers equal, and how many then close both
    equal (the two runs never overlap): equal means the same coordinates
    cut the same way. Each count is a bisection over array slice
    comparisons, which run in C."""
    n, m = len(a), len(b)

    def longest(same, limit: int) -> int:
        lo, hi = 0, limit
        while lo < hi:
            k = (lo + hi + 1) // 2
            if same(k):
                lo = k
            else:
                hi = k - 1
        return lo

    head = longest(
        lambda k: a.offsets[: k + 1] == b.offsets[: k + 1]
        and a.coords[: a.offsets[k]] == b.coords[: b.offsets[k]],
        min(n, m),
    )
    sizes_a, sizes_b = _ring_sizes(a), _ring_sizes(b)
    tail = longest(
        lambda k: sizes_a[n - k :] == sizes_b[m - k :]
        and a.coords[a.offsets[n - k] :] == b.coords[b.offsets[m - k] :],
        min(n, m) - head,
    )
    return head, tail


def _ring_sizes(rings) -> array:
    """Each ring's coordinate count, as an ``array('q')``."""
    offsets = rings.offsets
    return array("q", map(operator.sub, offsets[1:], offsets[:-1]))


def _unmatched(rings, start: int, keys: List[bytes], available: Counter) -> List:
    """The polygons of rings ``start``, ``start + 1``, ... (whose bytes are
    ``keys``) left after each takes one equal-bytes ring out of
    ``available`` (the other side's ring bytes, with counts)."""
    left = []
    for index, key in enumerate(keys, start):
        if available[key] > 0:
            available[key] -= 1
        else:
            left.append(rings.polygon(index))
    return left


def _cell_ref_dirty(
    old_cell, new_cell, layer: int, old_tree: HierarchyTree, new_tree: HierarchyTree
) -> Tuple[List[Rect], List]:
    """Dirty rects of changed references, plus the references common to both.

    A reference counts as touching the layer if its subtree carries the
    layer in *either* version (a child gaining the layer changes geometry
    placed through an otherwise identical reference chain — the child's own
    local diff produces the dirt, but the reference must still propagate).
    """

    def reaches(ref) -> bool:
        return _has_layer(old_tree, ref.cell_name, layer) or _has_layer(
            new_tree, ref.cell_name, layer
        )

    old_refs = Counter(
        _ref_key(r) for r in (old_cell.references if old_cell else ()) if reaches(r)
    )
    new_refs = Counter(
        _ref_key(r) for r in (new_cell.references if new_cell else ()) if reaches(r)
    )
    by_key = {}
    for ref in (old_cell.references if old_cell else ()):
        by_key.setdefault(_ref_key(ref), ref)
    for ref in (new_cell.references if new_cell else ()):
        by_key.setdefault(_ref_key(ref), ref)

    rects: List[Rect] = []
    common = []
    for key, ref in by_key.items():
        old_count = old_refs.get(key, 0)
        new_count = new_refs.get(key, 0)
        if old_count and new_count:
            common.append(ref)
        if old_count != new_count:
            # Added or removed instances: the whole placed subtree changed.
            # Use the MBR from the version that actually carries it.
            tree = old_tree if old_count > new_count else new_tree
            child_mbr = _layer_mbr(tree, ref.cell_name, layer)
            if not child_mbr.is_empty:
                rects.append(reference_mbr(ref, child_mbr))
    return rects, common


def _layer_dirty_rects(
    old: Layout, new: Layout, layer: int, old_tree: HierarchyTree, new_tree: HierarchyTree
) -> List[Rect]:
    """Top-frame dirty rects of one layer (both versions' top cells agree)."""
    names = sorted(set(old.cells) | set(new.cells))
    local_dirty: Dict[str, List[Rect]] = {}
    common_refs: Dict[str, List] = {}
    for name in names:
        old_cell = old.cells.get(name)
        new_cell = new.cells.get(name)
        token = new_tree.tokens.get(name)
        if token is not None and token == old_tree.tokens.get(name):
            # The same bytes: no local dirt, and every reference is common
            # (one that reaches no changed geometry contributes none).
            common_refs[name] = new_cell.references
            continue
        rects = _cell_local_dirty(old_cell, new_cell, layer)
        ref_rects, common = _cell_ref_dirty(
            old_cell, new_cell, layer, old_tree, new_tree
        )
        rects.extend(ref_rects)
        local_dirty[name] = rects
        common_refs[name] = common

    # Propagate each cell's local dirt to the top frame through the shared
    # references (changed references are already fully dirty above, so only
    # identical placements need the recursion). Memoised per definition —
    # the walk is hierarchical, like the digest.
    memo: Dict[str, List[Rect]] = {}

    def subtree_dirty(name: str) -> List[Rect]:
        cached = memo.get(name)
        if cached is not None:
            return cached
        memo[name] = []  # cycle guard; layouts are DAGs, but stay safe
        rects = list(local_dirty.get(name, ()))
        for ref in common_refs.get(name, ()):
            for rect in subtree_dirty(ref.cell_name):
                rects.append(reference_mbr(ref, rect))
        memo[name] = rects
        return rects

    return subtree_dirty(new_tree.top.name)


def diff_layouts(
    old: Layout,
    new: Layout,
    *,
    old_tree: Optional[HierarchyTree] = None,
    new_tree: Optional[HierarchyTree] = None,
    old_digests: Optional[Dict[int, str]] = None,
    new_digests: Optional[Dict[int, str]] = None,
    layers: Optional[Sequence[int]] = None,
) -> LayoutDiff:
    """Diff two layout versions into per-layer dirty region sets.

    ``layers`` restricts the comparison (e.g. to the layers a rule deck
    touches); by default every layer present in either version is diffed.
    Digest comparison is hierarchical — a clean layer costs one definition
    walk, never a flatten. A caller that already holds a version's tree or
    some of its per-layer digests passes them in; only what is missing is
    computed, the new version's against the old one's (structures read from
    the same bytes share tree MBRs and, where provably equal, digests).
    """
    old_tree = old_tree if old_tree is not None else HierarchyTree(old)
    new_tree = new_tree if new_tree is not None else HierarchyTree(new, previous=old_tree)

    if layers is None:
        layers = sorted(set(old.layers()) | set(new.layers()))

    def digests(tree: HierarchyTree, known: Optional[Dict[int, str]], previous=None) -> Dict[int, str]:
        known = known or {}
        computed = layer_digests(tree, [L for L in layers if L not in known], previous)
        return {L: known[L] if L in known else computed[L] for L in layers}

    old_layer_digests = digests(old_tree, old_digests)
    diff = LayoutDiff(
        old_layer_digests,
        digests(new_tree, new_digests, (old_tree, old_layer_digests)),
        dirty={},
        old_tree=old_tree,
        new_tree=new_tree,
    )
    if old_tree.top.name != new_tree.top.name:
        diff.full = True
        return diff

    for layer in layers:
        if diff.old_digests[layer] == diff.new_digests[layer]:
            continue
        rects = _layer_dirty_rects(old, new, layer, old_tree, new_tree)
        regions = RegionSet.of(rects)
        if regions.is_empty:
            # Digests differ but no rect was localised (should not happen;
            # degrade honestly rather than splice unsoundly).
            diff.dirty = {}
            diff.full = True
            return diff
        diff.dirty[layer] = regions
    return diff


def rule_regions(
    diff: LayoutDiff, rules: Sequence[Rule]
) -> Dict[str, Union[None, _FullRecheck, RegionSet]]:
    """Per-rule re-check regions for a whole deck (keyed by rule name)."""
    return {rule.name: diff.regions_for(rule) for rule in rules}


def _layer_mbr(tree: HierarchyTree, cell_name: str, layer: int) -> Rect:
    """Like ``tree.layer_mbr``, but empty for cells the version lacks."""
    try:
        return tree.layer_mbr(cell_name, layer)
    except KeyError:
        return EMPTY_RECT


def _has_layer(tree: HierarchyTree, cell_name: str, layer: int) -> bool:
    return not _layer_mbr(tree, cell_name, layer).is_empty

"""Rule-deck compilation: the CheckPlan IR and the Backend seam.

The paper's application layer "schedules computation tasks and dispatches
them to algorithms" (§V-A). This module makes that a two-stage pipeline:

1. **Compile** — :func:`compile_plan` normalizes and validates a rule deck
   against a layout, resolves every rule kind to its :class:`KindSpec`
   (the single per-kind dispatch table: every path calls what a kind's
   spec names), fixes the order the rules run in, and allocates the
   :class:`PlanCaches` that own the hierarchy tree, row partitions, and
   packed device buffers for the whole deck.
2. **Execute** — either :class:`Backend` (sequential CPU sweeps or fused
   simulated-GPU kernels) consumes the same plan; ``Engine.check`` runs the
   plan's rules on the chosen backend in :attr:`CheckPlan.run_order`.
   Windowing is not a backend: a windowed check hands a plan and a region
   set to :func:`repro.core.incremental.check_regions`, which gathers the
   regions' geometry and runs each kind's ``flat`` procedure in-process.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..checks.corner import CornerProcedures
from ..checks.enclosure import EnclosureProcedures
from ..checks.overlap import OverlapProcedures
from ..checks.spacing import SpacingProcedures
from ..hierarchy.pruning import (
    LevelItem,
    SubtreeWindow,
    always_invariant,
    area_invariant,
    buffer_rings,
    distance_invariant,
    level_items,
)
from ..hierarchy.tree import HierarchyTree
from ..layout.cell import Cell
from ..layout.library import Layout
from ..partition.rows import RowPartition, margin_for_rule, partition_rects
from ..util.profile import PHASE_PARTITION, PhaseProfile
from ..violation_table import Row, ViolationTable
from .packstore import layer_geometry_digest
from .rules import Rule, RuleKind, validate_rules

MODE_SEQUENTIAL = "sequential"
MODE_PARALLEL = "parallel"

#: The modes a plan can be compiled for and an :class:`EngineOptions` may
#: select.
ENGINE_MODES = (MODE_SEQUENTIAL, MODE_PARALLEL)

#: The mode label of a windowed check's report (not a mode: windowed checks
#: run :func:`repro.core.incremental.check_regions` on any plan).
MODE_WINDOWED = "windowed"


@dataclasses.dataclass
class EngineOptions:
    """Tuning knobs; defaults match the paper's described behaviour."""

    mode: str = MODE_SEQUENTIAL
    cache_dir: Optional[str] = None  # report store root (or $REPRO_CACHE_DIR)
    use_cache: bool = True  # False restores the uncached code path exactly

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


# ---------------------------------------------------------------------------
# The per-kind dispatch table
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class KindSpec:
    """Everything any backend needs to know about one rule kind.

    * ``flat`` — the gather-and-check procedure of windowed checks,
      ``flat(rule, layout, gather)`` (the ``_flat_*`` functions below);
    * ``sequential`` — the hierarchical CPU strategy name the sequential
      backend binds (``intra`` / ``pairwise`` / ``cross_layer`` /
      ``coloring``);
    * ``interaction`` — ``rule -> halo`` in dbu: geometry changes farther
      than the halo from a rect cannot create, destroy, or alter any
      violation whose marker overlaps that rect. The incremental engine
      inflates dirty rects by it to build each rule's re-check region.
      ``None`` means the kind is global (e.g. coloring's odd cycles span
      whole conflict components) and a dirty layer forces a full re-run;
    * ``parallel`` — the data-parallel strategy name the GPU backend binds
      (``None`` means the kind has no arithmetic worth vectorising and the
      parallel backend delegates to the sequential strategy);
    * ``intra`` — for intra-polygon kinds, ``rule -> (check(rings, layer,
      placement), invariance)``: the per-definition check (see
      :func:`_intra_check`) plus the transform invariance class that makes
      its results reusable across instances (§IV-C);
    * ``procedures`` — for pairwise/cross-layer kinds, the factory of the
      edge-level procedure object.
    """

    kind: RuleKind
    flat: Callable
    sequential: str
    interaction: Callable[[Rule], Optional[int]]
    parallel: Optional[str] = None
    intra: Optional[Callable] = None
    procedures: Optional[Callable] = None


def _intra_check(
    flat: Callable, local: Optional[Callable] = None, *, named: bool = False
) -> Callable:
    """One definition's intra check, ``(rings, layer, placement)``.

    In the definition's own frame (``placement=None``) ``local`` reads the
    ring buffer; a kind without one, and a placement that breaks the kind's
    invariance (a magnification), run ``flat`` over the buffer's rings as
    :func:`~repro.hierarchy.pruning.buffer_rings` places them (``named``:
    with their object names).
    """

    def check(rings, layer: int, placement) -> List[Row]:
        if placement is None and local is not None:
            return local(rings, layer)
        return flat(buffer_rings(rings, placement, named=named), layer)

    return check


def _width_intra(rule: Rule):
    from ..checks.width import check_ring_width, check_width

    return _intra_check(
        lambda rings, layer: check_width(rings, layer, rule.value),
        lambda rings, layer: check_ring_width(rings, layer, rule.value),
    ), distance_invariant


def _area_intra(rule: Rule):
    from ..checks.area import check_area, check_ring_area

    return _intra_check(
        lambda rings, layer: check_area(rings, layer, rule.value),
        lambda rings, layer: check_ring_area(rings, layer, rule.value),
    ), area_invariant


def _rectilinear_intra(rule: Rule):
    from ..checks.rectilinear import check_rectilinear

    return _intra_check(check_rectilinear), always_invariant


def _ensures_intra(rule: Rule):
    from ..checks.ensure import check_ensures

    return _intra_check(
        lambda rings, layer: check_ensures(rings, layer, rule.predicate), named=True
    ), always_invariant


def _layers_of(rule: Rule, layout: Layout) -> List[int]:
    return [rule.layer] if rule.layer is not None else layout.layers()


# The flat procedures: ``flat(rule, layout, gather)`` checks the placed rings
# ``gather(layer, margin, named=False)`` returns — the geometry of the
# regions grown by ``margin`` — plus ``gather.rect(layer, rect)`` and
# ``gather.window``, and returns its violation rows. ``layout`` serves the
# all-layer kinds.


def _flat_width(rule: Rule, layout: Layout, gather) -> List[Row]:
    from ..checks.width import check_width

    return check_width(gather(rule.layer, 0), rule.layer, rule.value)


def _flat_area(rule: Rule, layout: Layout, gather) -> List[Row]:
    from ..checks.area import check_area

    return check_area(gather(rule.layer, 0), rule.layer, rule.value)


def _flat_spacing(rule: Rule, layout: Layout, gather) -> List[Row]:
    from ..checks.spacing import check_spacing

    return check_spacing(gather(rule.layer, rule.value), rule.layer, rule.value)


def _flat_corner_spacing(rule: Rule, layout: Layout, gather) -> List[Row]:
    from ..checks.corner import check_corner_spacing

    return check_corner_spacing(gather(rule.layer, rule.value), rule.layer, rule.value)


def _flat_enclosure(rule: Rule, layout: Layout, gather) -> List[Row]:
    from ..checks.enclosure import check_enclosure

    return check_enclosure(
        gather(rule.layer, rule.value),
        gather(rule.other_layer, rule.value),
        rule.layer,
        rule.other_layer,
        rule.value,
    )


def _flat_min_overlap(rule: Rule, layout: Layout, gather) -> List[Row]:
    from ..geometry import union_all
    from ..checks.overlap import check_min_overlap

    tops = gather(rule.layer, 0)
    # Base partners only matter where they intersect a gathered top ring,
    # which can extend beyond the window: gather the base layer over the
    # union of the window and every gathered top MBR.
    reach = union_all([gather.window] + [mbr for _, mbr in tops])
    bases = gather.rect(rule.other_layer, reach)
    return check_min_overlap(tops, bases, rule.layer, rule.other_layer, rule.value)


def _flat_rectilinear(rule: Rule, layout: Layout, gather) -> List[Row]:
    from ..checks.rectilinear import check_rectilinear

    out: List[Row] = []
    for layer in _layers_of(rule, layout):
        out.extend(check_rectilinear(gather(layer, 0), layer))
    return out


def _flat_ensures(rule: Rule, layout: Layout, gather) -> List[Row]:
    from ..checks.ensure import check_ensures

    out: List[Row] = []
    for layer in _layers_of(rule, layout):
        out.extend(check_ensures(gather(layer, 0, named=True), layer, rule.predicate))
    return out


def _flat_coloring(rule: Rule, layout: Layout, gather) -> List[Row]:
    """Windowed coloring via conflict-component closure.

    Coloring is a global graph property, but conflict edges are shorter
    than the rule distance, so growing the gather window by the rule value
    until no new ring appears captures *complete* conflict components —
    on that closed sub-population the 2-coloring verdict (and every odd-
    cycle marker overlapping the original window) matches the full check.
    """
    from ..checks.coloring import canonical_order, check_two_colorable

    window = gather.window.inflated(rule.value)
    while True:
        rings = gather.rect(rule.layer, window)
        grown = window
        for _, mbr in rings:
            grown = grown.union(mbr.inflated(rule.value))
        if grown == window:
            break
        window = grown
    canonical_order(rings)
    return check_two_colorable(rings, rule.layer, rule.value)


def _halo_rule_value(rule: Rule) -> Optional[int]:
    """Distance rules interact out to their threshold: a violation strip
    reaches at most ``rule.value`` away from either participating shape."""
    return rule.value


def _halo_zero(rule: Rule) -> Optional[int]:
    """Kinds whose markers touch the participating geometry itself: width,
    area, shape, and predicate markers lie inside the polygon's MBR, and a
    min-overlap marker is the top polygon's MBR, which overlaps any base
    polygon that can affect its measured area."""
    return 0


def _halo_global(rule: Rule) -> Optional[int]:
    """No finite halo: the verdict can flip arbitrarily far from an edit."""
    return None


#: The single registry of rule-kind execution strategies. Every backend —
#: sequential, parallel — and the windowed procedure resolve their per-rule
#: behaviour here.
KIND_SPECS: Dict[RuleKind, KindSpec] = {
    RuleKind.WIDTH: KindSpec(
        RuleKind.WIDTH, _flat_width, "intra", _halo_zero,
        parallel="width", intra=_width_intra,
    ),
    RuleKind.AREA: KindSpec(
        RuleKind.AREA, _flat_area, "intra", _halo_zero,
        parallel="area", intra=_area_intra,
    ),
    RuleKind.RECTILINEAR: KindSpec(
        RuleKind.RECTILINEAR, _flat_rectilinear, "intra", _halo_zero,
        intra=_rectilinear_intra,
    ),
    RuleKind.ENSURES: KindSpec(
        RuleKind.ENSURES, _flat_ensures, "intra", _halo_zero,
        intra=_ensures_intra,
    ),
    RuleKind.SPACING: KindSpec(
        RuleKind.SPACING, _flat_spacing, "pairwise", _halo_rule_value,
        parallel="spacing", procedures=SpacingProcedures,
    ),
    RuleKind.CORNER_SPACING: KindSpec(
        RuleKind.CORNER_SPACING, _flat_corner_spacing, "pairwise", _halo_rule_value,
        parallel="corner", procedures=CornerProcedures,
    ),
    RuleKind.ENCLOSURE: KindSpec(
        RuleKind.ENCLOSURE, _flat_enclosure, "cross_layer", _halo_rule_value,
        parallel="enclosure", procedures=EnclosureProcedures,
    ),
    RuleKind.MIN_OVERLAP: KindSpec(
        RuleKind.MIN_OVERLAP, _flat_min_overlap, "cross_layer", _halo_zero,
        procedures=OverlapProcedures,
    ),
    RuleKind.COLORING: KindSpec(
        RuleKind.COLORING, _flat_coloring, "coloring", _halo_global
    ),
}


def kind_spec(kind: RuleKind) -> KindSpec:
    """The execution spec of one rule kind (raises for unknown kinds)."""
    try:
        return KIND_SPECS[kind]
    except KeyError:
        raise NotImplementedError(f"rule kind {kind!r}") from None


def interaction_distance(rule: Rule) -> Optional[int]:
    """The rule's dirty-region halo in dbu (None = globally coupled)."""
    return kind_spec(rule.kind).interaction(rule)


# ---------------------------------------------------------------------------
# Plan-owned caches
# ---------------------------------------------------------------------------


class PackCache:
    """Deck-scoped host-side cache (cross-rule buffer and walk reuse).

    Every rule on a layer re-walks the same hierarchy level and re-packs
    identical device buffers. This cache memoises the host-side artifacts —
    level items, item MBRs, row partitions, fused row buffers and definition
    buffers — filed under a *store* name and the layers they were built from,
    and keyed within that by the stable partition signature
    (:meth:`repro.partition.rows.RowPartition.signature`) where the artifact
    depends on the rows, so the second rule touching a layer pays zero host
    packing. A rule whose distance changes the partition margin, or a
    backend with rows disabled, produces a different signature and is
    thereby correctly bypassed.

    Entries live only while a rule still needs them. A backend that knows
    its rules' reads before running any (:meth:`expect`, once per read)
    has every ``(store, layers)`` slot dropped by its last read: that
    :meth:`read` hands the entry out and forgets it, so the caller holds it
    alone and can free it as it goes. A slot nobody announced lives as long
    as the cache.

    A plan — and therefore this cache — is owned by the one check that
    compiled it and read from that check's thread only.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._stores: Dict[Tuple[str, Any], Dict[Any, Any]] = {}
        self._readers: Dict[Tuple[str, Any], int] = {}

    def expect(self, store: str, layers: Any) -> None:
        """Announce one more read of ``(store, layers)`` to come."""
        slot = (store, layers)
        self._readers[slot] = self._readers.get(slot, 0) + 1

    def read(
        self, store: str, layers: Any, key: Any, build: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """The entry, built on a miss, and whether this was the slot's last
        announced read — then the slot has left the cache."""
        slot = (store, layers)
        bucket = self._stores.setdefault(slot, {})
        if key in bucket:
            self.hits += 1
            value = bucket[key]
        else:
            self.misses += 1
            value = bucket[key] = build()
        left = self._readers.get(slot)
        if left is None:
            return value, False
        if left > 1:
            self._readers[slot] = left - 1
            return value, False
        del self._readers[slot], self._stores[slot]
        return value, True

    def get(self, store: str, layers: Any, key: Any, build: Callable[[], Any]) -> Any:
        """:meth:`read` without the ownership flag."""
        return self.read(store, layers, key, build)[0]


class PlanCaches:
    """Shared state every backend executing one plan reads through.

    Owns the subtree range-query window, the :class:`PackCache` and the
    parallel mode's instance table; the level items of a (cell, layer) are
    identical for every rule in the deck, so they live here rather than in
    any one backend. Nothing here reaches disk: the row partition is cheap
    enough (Θ(k + N) over the top-level MBRs) to recompute in every process.
    """

    def __init__(self, tree: HierarchyTree) -> None:
        self.tree = tree
        self.subtree = SubtreeWindow(tree)
        self.pack = PackCache()
        self._layer_digests: Dict[int, str] = {}
        self._instances = None

    def instance_table(self):
        """The plan's one :class:`~repro.hierarchy.edgepack.InstanceTable`:
        where every definition sits under the top, which every device buffer
        of the parallel mode is expanded from. Built on first use (imported
        here because the sequential mode never loads NumPy); two threads
        racing the first use build equal tables and one wins."""
        if self._instances is None:
            from ..hierarchy.edgepack import InstanceTable

            self._instances = InstanceTable(self.tree)
        return self._instances

    def level_items(self, cell: Cell, layer: int) -> List[LevelItem]:
        return self.pack.get(
            "level-items", layer, cell.name, lambda: level_items(self.tree, cell, layer)
        )

    def layer_digest(self, layer: int) -> str:
        """Geometry content hash of one layer, memoised for the deck.

        Deliberately lock-free: the digest is a pure function of the frozen
        tree, so two threads racing the memo compute the same string and
        the single dict assignment is atomic under the GIL.
        """
        digest = self._layer_digests.get(layer)
        if digest is None:
            digest = layer_geometry_digest(self.tree, layer)
            self._layer_digests[layer] = digest
        return digest

    def layer_digests(self) -> Dict[int, str]:
        """Every layer's digest: the layout-version half of a report key."""
        return {L: self.layer_digest(L) for L in self.tree.layout.layers()}

    def partition_rows(
        self,
        layers: Any,
        count: int,
        table: Callable[[], array],
        value: int,
        *,
        use_rows: bool,
        profile: PhaseProfile,
    ) -> Tuple[RowPartition, Any]:
        """The row partition of ``count`` items whose flat MBR table
        (:func:`~repro.partition.rows.mbr_table`) ``table()`` builds, plus a
        stable signature for buffer reuse.

        The shared partition seam: both the sequential and parallel backends
        resolve the adaptive row partition (paper §IV-B) here, so they share
        one in-memory memo per (layers, margin), and the table is built only
        when the memo misses. The signature is the membership alone (packed
        buffers depend only on which items land in which row); with rows
        disabled it is a distinct ``norows`` marker so row-partitioned
        buffers are never reused by an unpartitioned backend. Only the
        computation itself is timed, under ``PHASE_PARTITION`` of
        ``profile``; a memo hit is not.
        """
        if not count:
            return RowPartition([], array("q"), array("q"), 0), ("empty",)
        if not use_rows:
            mbrs = table()
            span = (min(mbrs[1::4]), max(mbrs[3::4]))
            whole = RowPartition([span], array("q", range(count)), array("q", [count]), 0)
            return whole, ("norows", count)

        def build() -> Tuple[RowPartition, Any]:
            mbrs = table()
            with profile.phase(PHASE_PARTITION):
                partition = partition_rects(mbrs, value)
            return partition, partition.signature()[1]

        return self.pack.get("partition", layers, margin_for_rule(value), build)


# ---------------------------------------------------------------------------
# The IR
# ---------------------------------------------------------------------------


def infer_rule_dependencies(rules: Sequence[Rule]) -> Dict[str, Tuple[str, ...]]:
    """Rule name -> names of the rules it must run after.

    Rule decks commonly gate distance/area measurements on shape sanity
    (a non-rectilinear polygon makes edge checks meaningless): every
    geometric rule on a layer depends on that layer's shape rule when one
    is present, else on a deck-wide shape rule. No rule reads another's
    result; the dependency only orders execution.
    """
    shape_rules: Dict[Optional[int], str] = {}
    for rule in rules:
        if rule.kind is RuleKind.RECTILINEAR:
            shape_rules[rule.layer] = rule.name
    dependencies: Dict[str, Tuple[str, ...]] = {}
    for rule in rules:
        deps: Tuple[str, ...] = ()
        if rule.kind is not RuleKind.RECTILINEAR:
            for candidate_layer in (rule.layer, None):
                dep = shape_rules.get(candidate_layer)
                if dep is not None:
                    deps = (dep,)
                    break
        dependencies[rule.name] = deps
    return dependencies


@dataclasses.dataclass(frozen=True)
class CompiledRule:
    """One deck rule bound to its execution spec and dependencies."""

    index: int
    rule: Rule
    spec: KindSpec
    depends_on: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.rule.name


@dataclasses.dataclass
class CheckPlan:
    """A compiled, executable rule deck: the IR every backend consumes."""

    layout: Layout
    mode: str
    options: EngineOptions
    tree: HierarchyTree
    caches: PlanCaches
    #: The deck's rules in deck order (the order of the report).
    compiled: List[CompiledRule]
    #: The same rules in the order they run: deck order, each rule's
    #: dependency first.
    run_order: List[CompiledRule]

    @property
    def rules(self) -> List[Rule]:
        return [c.rule for c in self.compiled]

    def dependencies(self) -> Dict[str, Tuple[str, ...]]:
        """Rule name -> names it must run after (shape-sanity gating)."""
        return {c.name: c.depends_on for c in self.compiled}


def compile_plan(
    layout: Layout,
    rules: Sequence[Rule],
    options: Optional[EngineOptions] = None,
    *,
    mode: Optional[str] = None,
    tree: Optional[HierarchyTree] = None,
) -> CheckPlan:
    """Compile a rule deck against a layout into an executable plan.

    Validation happens here, once, for every execution path: deck
    non-emptiness, rule-name uniqueness, known rule kinds, and the mode.
    """
    deck = list(rules)
    if not deck:
        raise ValueError("no rules to check; call add_rules() first")
    validate_rules(deck)
    if options is None:
        options = EngineOptions()
    resolved_mode = mode if mode is not None else options.mode
    if resolved_mode not in ENGINE_MODES:
        raise ValueError(f"unknown mode {resolved_mode!r}")
    if tree is None:
        tree = HierarchyTree(layout)
    dependencies = infer_rule_dependencies(deck)
    compiled = [
        CompiledRule(
            index=index,
            rule=rule,
            spec=kind_spec(rule.kind),
            depends_on=dependencies[rule.name],
        )
        for index, rule in enumerate(deck)
    ]
    pending = {c.name: c for c in compiled}
    run_order: List[CompiledRule] = []
    for c in compiled:
        # A dependency is a shape rule, which depends on nothing itself.
        for name in c.depends_on + (c.name,):
            if name in pending:
                run_order.append(pending.pop(name))
    return CheckPlan(
        layout=layout,
        mode=resolved_mode,
        options=options,
        tree=tree,
        caches=PlanCaches(tree),
        compiled=compiled,
        run_order=run_order,
    )


# ---------------------------------------------------------------------------
# The Backend protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class Backend(Protocol):
    """What every plan executor implements.

    ``run`` executes one rule of the plan and returns its violation table,
    markers in top-cell coordinates; ``stats`` snapshots the backend's cumulative
    counters (pruning, executor choice, device traffic) for
    :class:`~repro.core.results.CheckResult`.
    """

    plan: Optional[CheckPlan]

    def run(
        self, rule: Rule, profile: Optional[PhaseProfile] = None
    ) -> ViolationTable: ...

    def stats(self) -> Dict[str, float]: ...


def make_backend(plan: CheckPlan) -> Backend:
    """Instantiate the backend the plan's mode selects."""
    if plan.mode == MODE_SEQUENTIAL:
        from .sequential import SequentialBackend

        return SequentialBackend(plan)
    from .parallel import ParallelBackend

    return ParallelBackend(plan)

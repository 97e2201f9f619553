"""Rule-deck compilation: the CheckPlan IR and the Backend seam.

The paper's application layer "schedules computation tasks and dispatches
them to algorithms" (§V-A). This module makes that a two-stage pipeline:

1. **Compile** — :func:`compile_plan` normalizes and validates a rule deck
   against a layout, resolves every rule kind to its :class:`KindSpec`
   (the single per-kind dispatch table; together with
   :data:`repro.checks.base.FLAT_CHECKS` it replaces the three hand-written
   kind→function maps the sequential, parallel, and windowed paths used to
   carry), fixes the order the rules run in, and allocates the
   :class:`PlanCaches` that own the hierarchy tree, row partitions, and
   packed device buffers for the whole deck.
2. **Execute** — any :class:`Backend` (sequential CPU sweeps, fused
   simulated-GPU kernels, or the multiprocess pool over them) consumes the
   same plan; ``Engine.check`` runs the plan's rules on the chosen backend
   in :attr:`CheckPlan.run_order`. Windowing is not a backend: a windowed
   check hands a plan and a region set to
   :func:`repro.core.incremental.check_regions`, which gathers the regions'
   geometry and runs each kind's ``flat`` procedure in-process.

This is the load-bearing seam for multi-process sharding: a plan is a
self-contained, executable artifact.
"""

from __future__ import annotations

import dataclasses
import threading
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

from ..checks.base import FLAT_CHECKS, Violation
from ..checks.corner import CornerProcedures
from ..checks.enclosure import EnclosureProcedures
from ..checks.overlap import OverlapProcedures
from ..checks.spacing import SpacingProcedures
from ..hierarchy.pruning import (
    LevelItem,
    SubtreeWindow,
    always_invariant,
    area_invariant,
    distance_invariant,
    level_items,
)
from ..hierarchy.tree import HierarchyTree
from ..layout.cell import Cell
from ..layout.library import Layout
from ..partition.rows import margin_for_rule, partition_rects
from ..util import faults as fault_injection
from ..util.profile import PhaseProfile
from .packstore import (
    PackStore,
    layer_geometry_digest,
    member_rows_from_arrays,
    member_rows_to_arrays,
    resolve_store,
    store_key,
)
from .rules import Rule, RuleKind, validate_rules

MODE_SEQUENTIAL = "sequential"
MODE_PARALLEL = "parallel"
MODE_MULTIPROC = "multiproc"

#: The modes a plan can be compiled for and an :class:`EngineOptions` may
#: select.
ENGINE_MODES = (MODE_SEQUENTIAL, MODE_PARALLEL, MODE_MULTIPROC)

#: The mode label of a windowed check's report (not a mode: windowed checks
#: run :func:`repro.core.incremental.check_regions` on any plan).
MODE_WINDOWED = "windowed"

#: Start methods ``EngineOptions.mp_start_method`` accepts (None = platform
#: default; ``spawn`` is the macOS/Windows-portable semantics the CI smoke
#: job forces).
MP_START_METHODS = (None, "fork", "spawn", "forkserver")

#: Seconds the multiprocess backend waits on one task before treating the
#: worker as hung/lost and retrying. Generous — a healthy task finishes in
#: milliseconds; only a hung or killed worker ever reaches it.
DEFAULT_TASK_TIMEOUT = 300.0

#: Resubmissions per failed/timed-out task before the in-process fallback.
DEFAULT_MAX_RETRIES = 2


@dataclasses.dataclass
class EngineOptions:
    """Tuning knobs; defaults match the paper's described behaviour."""

    mode: str = MODE_SEQUENTIAL
    jobs: int = 1  # worker processes for the multiprocess backend
    mp_start_method: Optional[str] = None  # None = platform default
    cache_dir: Optional[str] = None  # persistent pack store root (or $REPRO_CACHE_DIR)
    use_cache: bool = True  # False restores the uncached code path exactly
    task_timeout: Optional[float] = DEFAULT_TASK_TIMEOUT  # None = wait forever
    max_retries: int = DEFAULT_MAX_RETRIES  # per-task resubmissions
    faults: Optional[str] = None  # fault-injection spec (or $REPRO_FAULTS)

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.jobs < 1:
            raise ValueError(
                f"jobs must be a positive integer, got {self.jobs}; "
                "use 1 for in-process execution"
            )
        if self.mp_start_method not in MP_START_METHODS:
            raise ValueError(
                f"unknown mp_start_method {self.mp_start_method!r}; "
                f"expected one of {MP_START_METHODS[1:]}"
            )
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise ValueError(
                f"task_timeout must be positive seconds (or None to wait "
                f"forever), got {self.task_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        # Parse now so a malformed spec fails loudly at options creation,
        # not deep inside a worker process.
        fault_injection.FaultPlan.parse(self.faults)


# ---------------------------------------------------------------------------
# The per-kind dispatch table
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class KindSpec:
    """Everything any backend needs to know about one rule kind.

    * ``flat`` — the gather-and-check procedure (windowed checks and flat
      fallbacks), from :data:`repro.checks.base.FLAT_CHECKS`;
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


def _intra_check(flat: Callable, local: Optional[Callable] = None) -> Callable:
    """One definition's intra check, ``(rings, layer, placement)``.

    In the definition's own frame (``placement=None``) ``local`` reads the
    ring buffer; a kind without one runs ``flat`` over the buffer's polygon
    view. A placement that breaks the kind's invariance (a magnification)
    gets ``flat`` over the placed polygons.
    """

    def check(rings, layer: int, placement) -> List[Violation]:
        if placement is not None:
            return flat([p.transformed(placement) for p in rings.polygons()], layer)
        if local is not None:
            return local(rings, layer)
        return flat(rings.polygons(), layer)

    return check


def _width_intra(rule: Rule):
    from ..checks.width import check_ring_width, check_width

    return _intra_check(
        lambda polygons, layer: check_width(polygons, layer, rule.value),
        lambda rings, layer: check_ring_width(rings, layer, rule.value),
    ), distance_invariant


def _area_intra(rule: Rule):
    from ..checks.area import check_area, check_ring_area

    return _intra_check(
        lambda polygons, layer: check_area(polygons, layer, rule.value),
        lambda rings, layer: check_ring_area(rings, layer, rule.value),
    ), area_invariant


def _rectilinear_intra(rule: Rule):
    from ..checks.rectilinear import check_rectilinear

    return _intra_check(check_rectilinear), always_invariant


def _ensures_intra(rule: Rule):
    from ..checks.ensure import check_ensures

    return _intra_check(
        lambda polygons, layer: check_ensures(polygons, layer, rule.predicate)
    ), always_invariant


def _spec(kind: RuleKind, sequential: str, *, interaction, **kwargs: Any) -> KindSpec:
    return KindSpec(
        kind=kind,
        flat=FLAT_CHECKS.get(kind).run,
        sequential=sequential,
        interaction=interaction,
        **kwargs,
    )


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
    RuleKind.WIDTH: _spec(
        RuleKind.WIDTH, "intra", interaction=_halo_zero,
        parallel="width", intra=_width_intra,
    ),
    RuleKind.AREA: _spec(
        RuleKind.AREA, "intra", interaction=_halo_zero,
        parallel="area", intra=_area_intra,
    ),
    RuleKind.RECTILINEAR: _spec(
        RuleKind.RECTILINEAR, "intra", interaction=_halo_zero,
        intra=_rectilinear_intra,
    ),
    RuleKind.ENSURES: _spec(
        RuleKind.ENSURES, "intra", interaction=_halo_zero,
        intra=_ensures_intra,
    ),
    RuleKind.SPACING: _spec(
        RuleKind.SPACING, "pairwise", interaction=_halo_rule_value,
        parallel="spacing", procedures=SpacingProcedures,
    ),
    RuleKind.CORNER_SPACING: _spec(
        RuleKind.CORNER_SPACING, "pairwise", interaction=_halo_rule_value,
        parallel="corner", procedures=CornerProcedures,
    ),
    RuleKind.ENCLOSURE: _spec(
        RuleKind.ENCLOSURE, "cross_layer", interaction=_halo_rule_value,
        parallel="enclosure", procedures=EnclosureProcedures,
    ),
    RuleKind.MIN_OVERLAP: _spec(
        RuleKind.MIN_OVERLAP, "cross_layer", interaction=_halo_zero,
        procedures=OverlapProcedures,
    ),
    RuleKind.COLORING: _spec(
        RuleKind.COLORING, "coloring", interaction=_halo_global
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
    buffers — keyed by layer plus the stable partition signature
    (:meth:`repro.partition.rows.RowPartition.signature`), so the second
    rule touching a layer pays zero host packing. A rule whose distance
    changes the partition margin, or a backend with rows disabled, produces
    a different signature and is thereby correctly bypassed.

    Thread-safety: a plan — and therefore this cache — is owned by the one
    check that compiled it, but a multiprocess backend's shard paths may
    consult it from the handler thread while the engine's rule loop
    touches it too. ``get`` therefore locks its lookup-or-build. The lock
    is *not* held while ``build()`` runs (a build may pack large buffers);
    losing that race costs one redundant build, never a wrong value —
    builds are pure functions of the key.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._stores: Dict[str, Dict[Any, Any]] = {}

    def get(self, store: str, key: Any, build: Callable[[], Any]) -> Any:
        with self._lock:
            bucket = self._stores.setdefault(store, {})
            if key in bucket:
                self.hits += 1
                return bucket[key]
            self.misses += 1
        value = build()
        with self._lock:
            # First publisher wins so every reader sees one object identity
            # (partition signatures are compared, and buffers are reused,
            # by the value actually stored).
            return bucket.setdefault(key, value)


class PlanCaches:
    """Shared state every backend executing one plan reads through.

    Owns the subtree range-query window, the :class:`PackCache` and the
    parallel mode's instance table; the level items of a (cell, layer) are
    identical for every rule in the deck, so they live here rather than in
    any one backend.

    When a persistent :class:`~repro.core.packstore.PackStore` is attached
    (``store``), cross-*process* artifacts — the adaptive row partition here,
    packed fused buffers in the parallel backend — are consulted on disk
    before being rebuilt, keyed by per-layer geometry digests
    (:func:`~repro.core.packstore.layer_geometry_digest`), so a warm-start
    check skips partitioning and packing entirely.
    """

    def __init__(self, tree: HierarchyTree, *, store: Optional[PackStore] = None) -> None:
        self.tree = tree
        self.subtree = SubtreeWindow(tree)
        self.pack = PackCache()
        self.store = store
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
            "level-items",
            (cell.name, layer),
            lambda: level_items(self.tree, cell, layer),
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

    def digest_of(self, key: Any) -> Any:
        """Digest(s) for a partition key: one layer or a tuple of layers."""
        if isinstance(key, tuple):
            return tuple(self.layer_digest(layer) for layer in key)
        return self.layer_digest(key)

    def partition_rows(
        self,
        key: Any,
        mbrs: Sequence[Any],
        value: int,
        *,
        use_rows: bool,
        cold_timer: Optional[Callable[[], Any]] = None,
    ) -> Tuple[List[List[int]], Any]:
        """Row membership lists plus a stable signature for buffer reuse.

        The shared partition seam: both the sequential and parallel backends
        resolve the adaptive row partition (paper §IV-B) here, so they share
        one in-memory memo per (key, margin) and — with a store attached —
        one on-disk entry per (layer geometry, margin). The signature is the
        membership tuple alone (packed buffers depend only on which items
        land in which row); with rows disabled it is a distinct ``norows``
        marker so row-partitioned buffers are never reused by an
        unpartitioned backend. ``cold_timer`` is a context-manager factory
        wrapped around the actual partition computation only — a warm start
        never enters it.
        """
        if not mbrs:
            return [], ("empty",)
        if not use_rows:
            return [list(range(len(mbrs)))], ("norows", len(mbrs))
        margin = margin_for_rule(value)

        def build() -> Tuple[List[List[int]], Any]:
            skey = None
            if self.store is not None:
                skey = store_key("partition", self.digest_of(key), margin)
                rows = self.store.load(skey, member_rows_from_arrays)
                if rows is not None:
                    return rows, tuple(tuple(row) for row in rows)
            if cold_timer is not None:
                with cold_timer():
                    partition = partition_rects(mbrs, value)
            else:
                partition = partition_rects(mbrs, value)
            rows = partition.members
            if skey is not None:
                arrays, meta = member_rows_to_arrays(rows)
                self.store.save(skey, arrays, meta)
            return rows, partition.signature()[1]

        return self.pack.get("partition", (key, margin), build)


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
    # Arm (or clear) the process-global fault-injection plan for this run.
    # Idempotent by spec, so worker processes re-compiling the shipped plan
    # do not re-arm faults their process already fired. Concurrent checks
    # share one daemon's engine options (and therefore one spec): the
    # install itself is locked, and the plan's budgets meter process-wide
    # opportunities by design — which requests they fire against is
    # scheduling-dependent, but every request's report stays canonical
    # because recovery is byte-transparent.
    fault_injection.install(fault_injection.resolve_spec(options))
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
        caches=PlanCaches(tree, store=resolve_store(options)),
        compiled=compiled,
        run_order=run_order,
    )


# ---------------------------------------------------------------------------
# The Backend protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class Backend(Protocol):
    """What every plan executor implements.

    ``run`` executes one rule of the plan and returns its violations in
    top-cell coordinates; ``stats`` snapshots the backend's cumulative
    counters (pruning, executor choice, device traffic) for
    :class:`~repro.core.results.CheckResult`.
    """

    plan: Optional[CheckPlan]

    def run(
        self, rule: Rule, profile: Optional[PhaseProfile] = None
    ) -> List[Violation]: ...

    def stats(self) -> Dict[str, float]: ...


def make_backend(plan: CheckPlan, *, device=None) -> Backend:
    """Instantiate the backend the plan's mode selects."""
    if plan.mode == MODE_SEQUENTIAL:
        from .sequential import SequentialBackend

        return SequentialBackend(plan)
    if plan.mode == MODE_PARALLEL:
        from .parallel import ParallelBackend

        return ParallelBackend(plan, device=device)
    from .multiproc import MultiprocessBackend

    return MultiprocessBackend(plan, device=device)

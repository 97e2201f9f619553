"""KLayout-like baseline checkers: flat, deep, and tiling modes (paper §VI).

KLayout exposes three exclusive operation modes, which the paper benchmarks
in separate columns. These stand-ins model the *algorithmic* content of each
mode (see DESIGN.md §1 for the substitution argument):

* **flat** — flatten the whole layout, then run the checks over all flat
  polygons: full sweepline candidate search for spacing, a per-polygon scan
  for intra rules. No hierarchy reuse, no partition.
* **deep** — hierarchical: intra checks are memoised per cell definition
  (KLayout's deep mode is good at this, matching its fast Table-I column),
  but the inter-polygon candidate search at each hierarchy level is a
  quadratic MBR pair loop with full-overlap-window flattening — the
  heavyweight hierarchical analysis that makes deep mode *slower* than flat
  on hierarchy-poor dense layers (the paper's jpeg/M3 row: 3588 s deep vs
  317 s flat).
* **tile** — flatten, split into a fixed tile grid, check tiles
  independently; multi-CPU support is modelled by critical-path timing over
  a worker pool (Python threads cannot show real multicore speedups), with
  the honest serial time also reported in the result stats.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from ..checks.area import check_area
from ..checks.enclosure import check_enclosure
from ..checks.ensure import check_ensures
from ..checks.rectilinear import check_rectilinear
from ..checks.spacing import SpacingProcedures, check_spacing
from ..checks.width import check_width
from ..core.results import CheckReport, CheckResult
from ..core.rules import Rule, RuleKind
from ..geometry import Polygon
from ..geometry.booleans import union_polygons
from ..hierarchy.pruning import SubtreeWindow, gather_pair_rings, level_items, transform_rows
from ..hierarchy.tree import HierarchyTree
from ..layout.flatten import flatten_layer
from ..layout.flatten import polygon_rings as _rings
from ..layout.library import Layout
from ..partition.rows import margin_for_rule
from ..violation_table import Row, ViolationTable


class KLayoutLikeChecker:
    """One KLayout-like checker instance bound to a layout and a mode."""

    MODES = ("flat", "deep", "tile")

    def __init__(
        self,
        layout: Layout,
        mode: str = "flat",
        *,
        tile_size: int = 2048,
        workers: int = 8,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown KLayout-like mode {mode!r}")
        self.layout = layout
        self.mode = mode
        self.tile_size = tile_size
        self.workers = max(1, workers)
        self._flat_cache: Dict[int, List[Polygon]] = {}
        #: Stats of the last run (tile mode: serial vs modelled wall time).
        self.last_stats: Dict[str, float] = {}

    # -- public API -------------------------------------------------------------

    def run(self, rule: Rule) -> Tuple[ViolationTable, float]:
        """Execute one rule; returns (violation table, seconds).

        For tile mode, ``seconds`` is the modelled multi-worker wall time;
        ``last_stats["serial_seconds"]`` holds the measured single-core time.
        """
        self.last_stats = {}
        start = time.perf_counter()
        if self.mode == "flat":
            rows = self._run_flat(rule)
        elif self.mode == "deep":
            rows = self._run_deep(rule)
        else:
            # A polygon whose MBR spans tiles is checked once per tile; the
            # table keeps each marker once.
            rows, wall = self._run_tiled(rule)
            table = ViolationTable.from_rows(rows)
            self.last_stats["serial_seconds"] = time.perf_counter() - start
            self.last_stats["modelled_wall_seconds"] = wall
            return table, wall
        table = ViolationTable.from_rows(rows)
        return table, time.perf_counter() - start

    def check(self, rules: Sequence[Rule]) -> CheckReport:
        results = []
        for rule in rules:
            violations, seconds = self.run(rule)
            results.append(
                CheckResult(rule=rule, violations=violations, seconds=seconds,
                            stats=dict(self.last_stats))
            )
        return CheckReport(self.layout.name, f"klayout-{self.mode}", results)

    # -- shared helpers -----------------------------------------------------------

    def _flat(self, layer: int) -> List[Polygon]:
        if layer not in self._flat_cache:
            self._flat_cache[layer] = flatten_layer(self.layout, layer)
        return self._flat_cache[layer]

    def clear_cache(self) -> None:
        """Drop flattening caches (so benchmarks charge flattening per run)."""
        self._flat_cache.clear()

    # -- flat mode ------------------------------------------------------------------

    def _normalize(self, polygons: Sequence[Polygon], label: str) -> None:
        """KLayout-style region normalization (merge) pre-pass.

        KLayout's DRC pipeline always merges input shapes into disjoint
        regions before measuring. The merge is executed for real (it is the
        dominant honest cost of the generic pipeline); the checks then run
        on the original shapes so that violation semantics stay identical
        across all checkers (see DESIGN.md §1). Region statistics land in
        ``last_stats``.
        """
        region = union_polygons(polygons)
        self.last_stats[f"regions[{label}]"] = region.region_count

    def _run_flat(self, rule: Rule) -> List[Row]:
        if rule.kind is RuleKind.SPACING:
            polygons = self._flat(rule.layer)
            self._normalize(polygons, f"L{rule.layer}")
            return check_spacing(_rings(polygons), rule.layer, rule.value)
        if rule.kind is RuleKind.ENCLOSURE:
            vias = self._flat(rule.layer)
            metals = self._flat(rule.other_layer)
            self._normalize(vias, f"L{rule.layer}")
            self._normalize(metals, f"L{rule.other_layer}")
            return check_enclosure(
                _rings(vias), _rings(metals), rule.layer, rule.other_layer, rule.value
            )
        layers = [rule.layer] if rule.layer is not None else self.layout.layers()
        out: List[Row] = []
        for layer in layers:
            polygons = self._flat(layer)
            self._normalize(polygons, f"L{layer}")
            out += _intra_flat(rule, polygons, layer)
        return out

    # -- deep mode ---------------------------------------------------------------------

    def _run_deep(self, rule: Rule) -> List[Row]:
        tree = HierarchyTree(self.layout)
        if rule.layer is not None:
            self._deep_normalize(rule.layer)
        if rule.is_intra:
            return self._deep_intra(rule, tree)
        if rule.kind is RuleKind.SPACING:
            return self._deep_spacing(rule.layer, rule.value, tree)
        return self._deep_enclosure(rule.layer, rule.other_layer, rule.value, tree)

    def _deep_normalize(self, layer: int) -> None:
        """Deep-mode normalization: merge per cell *definition* (cheap)."""
        regions = 0
        for cell in self.layout.cells.values():
            polygons = cell.polygons(layer)
            if polygons:
                regions += union_polygons(polygons).region_count
        self.last_stats[f"regions[L{layer}]"] = regions

    def _deep_intra(self, rule: Rule, tree: HierarchyTree) -> List[Row]:
        from ..core.sequential import SequentialBackend

        # Deep mode's hierarchical intra checking is the same memoisation
        # OpenDRC uses — this is why KLayout-deep is fast in Table I.
        return SequentialBackend(self.layout, tree=tree, use_rows=False).run(rule).rows()

    def _deep_spacing(self, layer: int, value: int, tree: HierarchyTree) -> List[Row]:
        subtree = SubtreeWindow(tree)
        procedures = SpacingProcedures()
        memo: Dict[str, List[Row]] = {}

        def internal(cell_name: str) -> List[Row]:
            if cell_name in memo:
                return memo[cell_name]
            cell = self.layout.cell(cell_name)
            rings = cell.rings(layer)
            vios: List[Row] = []
            if rings:
                for index in range(len(rings)):
                    rows = procedures.prepare(rings.points(index))
                    vios += procedures.self_violations(rows, layer, value)
            items = level_items(tree, cell, layer)
            margin = margin_for_rule(value)
            # Quadratic candidate loop — deep mode's hierarchical analysis
            # cost, with per-pair full-window flattening.
            for i in range(len(items)):
                mbr_i = items[i].mbr.inflated(margin)
                for j in range(i + 1, len(items)):
                    if not mbr_i.overlaps(items[j].mbr.inflated(margin)):
                        continue
                    side_a, side_b = gather_pair_rings(
                        rings, items[i], items[j], subtree, layer, value
                    )
                    for ring_a, mbr_a in side_a:
                        window = mbr_a.inflated(value)
                        for ring_b, mbr_b in side_b:
                            if window.overlaps(mbr_b):
                                vios += procedures.cross_violations(
                                    procedures.prepare(ring_a),
                                    procedures.prepare(ring_b),
                                    layer,
                                    value,
                                )
            for ref in cell.references:
                if not tree.has_layer(ref.cell_name, layer):
                    continue
                child = internal(ref.cell_name)
                for placement in ref.placements():
                    if placement.preserves_distances:
                        vios += transform_rows(child, [placement])
                    else:
                        window = placement.apply_rect(tree.layer_mbr(ref.cell_name, layer))
                        flat = subtree.rings_in_window(ref.cell_name, placement, layer, window)
                        vios += check_spacing(flat, layer, value)
            memo[cell_name] = vios
            return vios

        return internal(tree.top.name)

    def _deep_enclosure(
        self, via_layer: int, metal_layer: int, value: int, tree: HierarchyTree
    ) -> List[Row]:
        # Hierarchy brings little for cross-layer rules in KLayout's model;
        # evaluate on the flattened layers (its deep engine falls back to
        # region operations for such interactions).
        return check_enclosure(
            _rings(self._flat(via_layer)),
            _rings(self._flat(metal_layer)),
            via_layer,
            metal_layer,
            value,
        )

    # -- tiling mode -------------------------------------------------------------------

    def _run_tiled(self, rule: Rule) -> Tuple[List[Row], float]:
        """Tiled execution: modelled wall = serial setup (flatten + tile
        assignment, single-threaded in KLayout too) + the LPT critical path
        of the per-tile checks over the worker pool. A marker found in
        several tiles comes once per tile."""
        setup_start = time.perf_counter()
        if rule.is_intra:
            # Intra rules tile trivially (each polygon in one tile by MBR).
            layers = [rule.layer] if rule.layer is not None else self.layout.layers()
            per_layer_tiles = [
                (layer, self._assign_tiles(self._flat(layer), margin=0))
                for layer in layers
            ]
            setup = time.perf_counter() - setup_start
            tile_times: List[float] = []
            out: List[Row] = []
            for layer, tiles in per_layer_tiles:
                for polygons in tiles.values():
                    t0 = time.perf_counter()
                    union_polygons(polygons)  # per-tile normalization
                    out += _intra_flat(rule, polygons, layer)
                    tile_times.append(time.perf_counter() - t0)
            return out, setup + _critical_path(tile_times, self.workers)
        if rule.kind is RuleKind.SPACING:
            margin = margin_for_rule(rule.value)
            tiles = self._assign_tiles(self._flat(rule.layer), margin=margin)
            setup = time.perf_counter() - setup_start
            out = []
            tile_times = []
            for polygons in tiles.values():
                t0 = time.perf_counter()
                union_polygons(polygons)  # per-tile normalization
                out += check_spacing(_rings(polygons), rule.layer, rule.value)
                tile_times.append(time.perf_counter() - t0)
            return out, setup + _critical_path(tile_times, self.workers)
        # Enclosure: tile both layers with the rule margin.
        vias = self._flat(rule.layer)
        metals = self._flat(rule.other_layer)
        via_tiles = self._assign_tiles(vias, margin=rule.value)
        metal_tiles = self._assign_tiles(metals, margin=rule.value)
        setup = time.perf_counter() - setup_start
        out = []
        tile_times = []
        for key, tile_vias in via_tiles.items():
            t0 = time.perf_counter()
            union_polygons(tile_vias)  # per-tile normalization
            union_polygons(metal_tiles.get(key, []))
            out += check_enclosure(
                _rings(tile_vias),
                _rings(metal_tiles.get(key, [])),
                rule.layer,
                rule.other_layer,
                rule.value,
            )
            tile_times.append(time.perf_counter() - t0)
        return out, setup + _critical_path(tile_times, self.workers)

    def _assign_tiles(
        self, polygons: Sequence[Polygon], *, margin: int
    ) -> Dict[Tuple[int, int], List[Polygon]]:
        """Assign each polygon to every tile its margin-inflated MBR overlaps."""
        tiles: Dict[Tuple[int, int], List[Polygon]] = {}
        size = self.tile_size
        for polygon in polygons:
            mbr = polygon.mbr.inflated(margin)
            for tx in range(mbr.xlo // size, mbr.xhi // size + 1):
                for ty in range(mbr.ylo // size, mbr.yhi // size + 1):
                    tiles.setdefault((tx, ty), []).append(polygon)
        return tiles


def _intra_flat(rule: Rule, polygons: Sequence[Polygon], layer: int) -> List[Row]:
    if rule.kind is RuleKind.WIDTH:
        return check_width(_rings(polygons), layer, rule.value)
    if rule.kind is RuleKind.AREA:
        return check_area(_rings(polygons), layer, rule.value)
    if rule.kind is RuleKind.RECTILINEAR:
        return check_rectilinear(_rings(polygons), layer)
    if rule.kind is RuleKind.ENSURES:
        return check_ensures(_rings(polygons, named=True), layer, rule.predicate)
    raise NotImplementedError(rule.kind)


def _critical_path(tile_times: List[float], workers: int) -> float:
    """LPT-schedule tile times onto ``workers``; return the makespan.

    Models KLayout's multi-CPU tiling without pretending Python threads ran
    in parallel; the honest serial sum is reported alongside in last_stats.
    """
    if not tile_times:
        return 0.0
    loads = [0.0] * workers
    for t in sorted(tile_times, reverse=True):
        loads[loads.index(min(loads))] += t
    return max(loads)

import pytest

from repro.core import Engine, EngineOptions, parallel
from repro.core.plan import make_backend
from repro.core.rules import layer
from repro.geometry import Polygon, Transform
from repro.gpu import Device, OpKind
from repro.layout import CellReference, Layout
from repro.workloads import asap7

from .via_layouts import every_kind_deck, random_via_layout


def make_engines():
    return Engine(mode="sequential"), Engine(mode="parallel")


def rotated_layout() -> Layout:
    """Instances under every rigid transform; par and seq must agree."""
    layout = Layout("rot")
    cellule = layout.new_cell("cellule")
    cellule.add_polygon(1, Polygon.from_rect_coords(0, 0, 8, 60))
    cellule.add_polygon(1, Polygon.from_rect_coords(12, 0, 20, 60))  # gap 4
    top = layout.new_cell("top")
    spot = 0
    for rotation in (0, 90, 180, 270):
        for mirror in (False, True):
            top.add_reference(
                CellReference(
                    "cellule",
                    Transform(dx=spot * 500, dy=0, rotation=rotation, mirror_x=mirror),
                )
            )
            spot += 1
    layout.set_top("top")
    return layout


class TestParallelAgreesWithSequential:
    @pytest.mark.parametrize(
        "rule_factory",
        [
            lambda: layer(1).spacing().greater_than(6),
            lambda: layer(1).width().greater_than(10),
            lambda: layer(1).area().greater_than(1000),
        ],
        ids=["spacing", "width", "area"],
    )
    def test_rotated_instances(self, rule_factory):
        layout = rotated_layout()
        seq, par = make_engines()
        rs = seq.check(layout, rules=[rule_factory()])
        rp = par.check(layout, rules=[rule_factory()])
        assert rs.results[0].violation_set() == rp.results[0].violation_set()
        assert rs.results[0].num_violations > 0

    def test_designs_full_deck(self, uart_layout):
        deck = asap7.full_deck()
        seq, par = make_engines()
        seq.add_rules(deck)
        par.add_rules(deck)
        rs = seq.check(uart_layout)
        rp = par.check(uart_layout)
        for a, b in zip(rs.results, rp.results):
            assert a.violation_set() == b.violation_set(), a.rule.name


class TestEveryRuleKind:
    @pytest.mark.parametrize("seed", range(2))
    def test_every_rule_kind(self, seed):
        """Every kind, on random rotated and mirrored metal + via placements,
        reports the sequential violation list, in the same order."""
        layout = random_via_layout(200 + seed)
        deck = every_kind_deck()
        reference = Engine(mode="sequential").check(layout, rules=deck)
        got = Engine(mode="parallel").check(layout, rules=deck)
        for ref, result in zip(reference.results, got.results):
            assert result.violations == ref.violations, ref.rule.name


class TestExecutorSelection:
    def test_small_tasks_use_bruteforce(self, uart_layout, monkeypatch):
        monkeypatch.setattr(parallel, "BRUTE_FORCE_THRESHOLD", 10 ** 9)
        report = Engine(mode="parallel").check(uart_layout, rules=[asap7.spacing_rule(asap7.M1)])
        stats = report.results[-1].stats
        assert stats["kernels_bruteforce"] > 0 and stats["kernels_sweepline"] == 0

    def test_large_tasks_use_sweepline(self, uart_layout, monkeypatch):
        monkeypatch.setattr(parallel, "BRUTE_FORCE_THRESHOLD", 0)
        report = Engine(mode="parallel").check(uart_layout, rules=[asap7.spacing_rule(asap7.M1)])
        stats = report.results[-1].stats
        assert stats["kernels_sweepline"] > 0 and stats["kernels_bruteforce"] == 0

    def test_both_executors_same_violations(self, ibex_layout, monkeypatch):
        rule = asap7.spacing_rule(asap7.M2)
        monkeypatch.setattr(parallel, "BRUTE_FORCE_THRESHOLD", 10 ** 9)
        a = Engine(mode="parallel").check(ibex_layout, rules=[rule])
        monkeypatch.setattr(parallel, "BRUTE_FORCE_THRESHOLD", 0)
        b = Engine(mode="parallel").check(ibex_layout, rules=[rule])
        assert a.results[0].violation_set() == b.results[0].violation_set()

    @pytest.mark.parametrize("threshold", [0, 1, 16, 256, 10 ** 9])
    def test_any_threshold_same_violations(self, uart_layout, threshold, monkeypatch):
        """The threshold only routes rows between the two lanes: every
        setting reports what the sequential sweep reports."""
        deck = [asap7.spacing_rule(asap7.M1), asap7.spacing_rule(asap7.M2)]
        reference = Engine(mode="sequential").check(uart_layout, rules=deck)
        monkeypatch.setattr(parallel, "BRUTE_FORCE_THRESHOLD", threshold)
        engine = Engine(mode="parallel")
        report = engine.check(uart_layout, rules=deck)
        assert make_backend(engine.compile(uart_layout, rules=deck)).brute_force_threshold == threshold
        for got, want in zip(report.results, reference.results):
            assert got.violation_set() == want.violation_set(), got.rule.name


class TestDeviceIntegration:
    def test_ops_recorded_on_device(self, uart_layout):
        device = Device("test-gpu")
        par = Engine(mode="parallel", device=device)
        par.check(uart_layout, rules=[asap7.spacing_rule(asap7.M1)])
        kinds = {op.kind for op in device.ops}
        assert OpKind.H2D in kinds and OpKind.KERNEL in kinds and OpKind.HOST in kinds

    def test_streams_round_robin(self, uart_layout):
        device = Device()
        par = Engine(mode="parallel", device=device)
        par.check(uart_layout, rules=[asap7.spacing_rule(asap7.M3)])
        streams = {op.stream for op in device.ops if op.stream is not None}
        assert streams == {0, 1}  # M3 rows spread over both streams

    def test_timeline_summary_nonzero(self, uart_layout):
        device = Device()
        par = Engine(mode="parallel", device=device)
        par.check(uart_layout, rules=[asap7.spacing_rule(asap7.M1)])
        summary = device.timeline().summarize()
        assert summary.serial_seconds > 0
        assert summary.async_seconds <= summary.serial_seconds


class TestRowsOff:
    def test_use_rows_false_same_results(self, uart_layout, monkeypatch):
        rule = asap7.spacing_rule(asap7.M3)
        on = Engine(mode="parallel").check(uart_layout, rules=[rule])
        monkeypatch.setattr(parallel.ParallelBackend, "use_rows", False)
        off = Engine(mode="parallel").check(uart_layout, rules=[rule])
        assert on.results[0].violation_set() == off.results[0].violation_set()


def ledger_dirty_jpeg(seed: int = 7, scale: int = 1):
    """The perf ledger's seeded dirty design, at jpeg@1.

    The recipe of ``benchmarks/ledger/inputs.py::synthesize`` (design, 40
    planted violations per kind, a sub-minimum-width M1 sliver in five cell
    definitions) copied, not imported: the ledger is not on the test path.
    """
    from repro.workloads import LIBRARY, InjectionPlan, build_design, inject_violations

    layout = build_design("jpeg", scale)
    inject_violations(
        layout, InjectionPlan(spacing=40, width=40, area=40, enclosure=40), seed=seed
    )
    for index, name in enumerate(("NAND2x1", "NOR2x1", "AND2x2", "AOI21x1", "MUX2x1")):
        right = LIBRARY[name].width - 32
        layout.cell(name).add_polygon(
            asap7.M1, Polygon.from_rect_coords(right - 8 - index, 60, right, 190)
        )
    return layout


class TestLedgerDesign:
    def test_parallel_report_is_the_sequential_report_byte_for_byte(self):
        layout = ledger_dirty_jpeg()
        deck = asap7.full_deck()
        reports = {}
        for mode in ("sequential", "parallel"):
            with Engine(options=EngineOptions(mode=mode, use_cache=False)) as engine:
                reports[mode] = engine.check(layout, rules=deck)
        assert reports["sequential"].total_violations > 400
        counts = {r.rule.name: r.num_violations for r in reports["parallel"].results}
        assert counts[asap7.rule_name("EN", asap7.V2, asap7.M2)] == 40  # the planted ones
        assert reports["parallel"].to_csv(expand_instances=True) == reports[
            "sequential"
        ].to_csv(expand_instances=True)


def test_parallel_check_of_a_rigid_layout_builds_no_fractions(monkeypatch):
    import fractions

    from repro.workloads import build_design

    layout = build_design("jpeg", 1)
    built = []
    real_new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    with Engine(options=EngineOptions(mode="parallel", use_cache=False)) as engine:
        report = engine.check(layout, rules=asap7.full_deck())
    monkeypatch.undo()

    assert built == []
    assert len(report.results) == len(asap7.full_deck())


def test_reading_a_rigid_layout_builds_no_fractions(monkeypatch):
    """A reference without a MAG record costs no ``Fraction``: the ledger
    stream's 664 references built ~2 k of them per parse."""
    import fractions

    from repro.gdsii import read_bytes, read_layout_bytes, write_bytes
    from repro.gdsii.model import magnification_scalar
    from repro.layout import gdsii_from_layout, layout_from_gdsii
    from repro.workloads import build_design

    data = write_bytes(gdsii_from_layout(build_design("jpeg", 1)))
    built = []
    real_new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    layout = read_layout_bytes(data)
    layout_from_gdsii(read_bytes(data))
    assert magnification_scalar(1.0) == 1 and isinstance(magnification_scalar(1.0), int)
    monkeypatch.undo()

    assert built == []
    assert sum(len(cell.references) for cell in layout.cells.values()) > 100
    # Real magnifications still convert exactly.
    assert magnification_scalar(2.0) == 2 and magnification_scalar(0.5) == fractions.Fraction(1, 2)


class TestPackLifetime:
    """Every pack leaves the plan's cache with its last announced reader."""

    @staticmethod
    def live_slots_after_each_rule(monkeypatch, layout, deck):
        """Per rule run: the rule's name, the cache's non-empty slots after
        it, and the announced reads the rules after it will make."""
        seen = []
        run = parallel.ParallelBackend.run

        def spy(self, rule, profile=None):
            out = run(self, rule, profile)
            order = [c.rule for c in self.plan.run_order]
            later = order[order.index(rule) + 1 :]
            to_come = {read for r in later for read in parallel.pack_reads(r)}
            live = {slot for slot, bucket in self.pack_cache._stores.items() if bucket}
            seen.append((rule.name, live, to_come))
            return out

        monkeypatch.setattr(parallel.ParallelBackend, "run", spy)
        with Engine(options=EngineOptions(mode="parallel", use_cache=False)) as engine:
            report = engine.check(layout, rules=deck)
        return report, seen

    def test_no_entry_outlives_its_last_reader(self, monkeypatch):
        layout = ledger_dirty_jpeg()
        _, seen = self.live_slots_after_each_rule(monkeypatch, layout, asap7.full_deck())
        assert len(seen) == len(asap7.full_deck())
        for name, live, to_come in seen:
            # Only the top level's items an enclosure row left to the host
            # are never announced; every other live slot has a reader to come.
            assert {slot for slot in live if slot[0] != "level-items"} <= to_come, name
        assert {slot[0] for slot in seen[-1][1]} <= {"level-items"}

    def test_a_later_rule_rereading_a_layer_still_hits(self, monkeypatch):
        layout = ledger_dirty_jpeg()
        deck = [
            asap7.spacing_rule(asap7.M2).named("S.first"),
            asap7.width_rule(asap7.M2),
            asap7.spacing_rule(asap7.M2).named("S.again"),
        ]
        report, seen = self.live_slots_after_each_rule(monkeypatch, layout, deck)
        assert ("fused-edges", asap7.M2) in seen[0][1]  # kept for the reread
        assert not seen[-1][1]
        before = report.results[1].stats
        again = report.results[2].stats
        assert again["pack_cache_misses"] == before["pack_cache_misses"]
        assert again["pack_cache_hits"] - before["pack_cache_hits"] == 3
        assert report.results[2].violations == report.results[0].violations

    def test_per_rule_cache_and_copy_counts_are_pinned(self):
        # (pack_cache_hits, pack_cache_misses, h2d_copies) per rule: what
        # the memo made before entries were released and columns narrowed.
        pinned = {
            "M1.W.1": (0, 1, 10), "M1.A.1": (1, 0, 2),
            "M2.W.1": (0, 1, 10), "M2.A.1": (1, 0, 2),
            "M3.W.1": (0, 1, 10), "M3.A.1": (1, 0, 2),
            "M1.S.1": (0, 3, 12), "M2.S.1": (0, 3, 12), "M3.S.1": (0, 3, 12),
            "V1.M1.EN.1": (1, 3, 4), "V2.M2.EN.1": (1, 3, 4), "V2.M3.EN.1": (2, 2, 4),
        }
        with Engine(options=EngineOptions(mode="parallel", use_cache=False)) as engine:
            report = engine.check(ledger_dirty_jpeg(), rules=asap7.full_deck())
        keys = ("pack_cache_hits", "pack_cache_misses", "h2d_copies")
        got, before = {}, dict.fromkeys(keys, 0)
        for result in report.results:
            got[result.rule.name] = tuple(result.stats[k] - before[k] for k in keys)
            before = result.stats
        assert got == pinned


class TestParallelMemoryBudget:
    def test_a_full_parallel_check_peaks_under_a_fixed_bound(self):
        import tracemalloc

        layout = ledger_dirty_jpeg()
        deck = asap7.full_deck()

        def check():
            with Engine(options=EngineOptions(mode="parallel", use_cache=False)) as engine:
                return engine.check(layout, rules=deck)

        check()  # first-use imports and memos are not the check's
        tracemalloc.start()
        try:
            check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Packs that live until the check ends, int64 columns and a second
        # host copy of every transferred buffer peaked at 2.9 MB here; packs
        # released by their last reader in int32 columns peak near 1.6 MB.
        assert peak < 2_200_000

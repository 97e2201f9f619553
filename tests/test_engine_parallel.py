import pytest

from repro.core import Engine, EngineOptions
from repro.core.rules import layer
from repro.geometry import Polygon, Transform
from repro.gpu import Device, OpKind
from repro.layout import CellReference, Layout
from repro.workloads import asap7


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


class TestExecutorSelection:
    def test_small_tasks_use_bruteforce(self, uart_layout):
        par = Engine(
            options=EngineOptions(mode="parallel", brute_force_threshold=10 ** 9)
        )
        par.check(uart_layout, rules=[asap7.spacing_rule(asap7.M1)])
        stats = par.last_checker.stats()
        assert stats["kernels_bruteforce"] > 0 and stats["kernels_sweepline"] == 0

    def test_large_tasks_use_sweepline(self, uart_layout):
        par = Engine(options=EngineOptions(mode="parallel", brute_force_threshold=0))
        par.check(uart_layout, rules=[asap7.spacing_rule(asap7.M1)])
        stats = par.last_checker.stats()
        assert stats["kernels_sweepline"] > 0 and stats["kernels_bruteforce"] == 0

    def test_both_executors_same_violations(self, ibex_layout):
        rule = asap7.spacing_rule(asap7.M2)
        brute = Engine(options=EngineOptions(mode="parallel", brute_force_threshold=10 ** 9))
        sweep = Engine(options=EngineOptions(mode="parallel", brute_force_threshold=0))
        a = brute.check(ibex_layout, rules=[rule])
        b = sweep.check(ibex_layout, rules=[rule])
        assert a.results[0].violation_set() == b.results[0].violation_set()


class TestDeviceIntegration:
    def test_ops_recorded_on_device(self, uart_layout):
        device = Device("test-gpu")
        par = Engine(mode="parallel", device=device)
        par.check(uart_layout, rules=[asap7.spacing_rule(asap7.M1)])
        kinds = {op.kind for op in device.ops}
        assert OpKind.H2D in kinds and OpKind.KERNEL in kinds and OpKind.HOST in kinds

    def test_streams_round_robin(self, uart_layout):
        device = Device()
        par = Engine(
            mode="parallel",
            device=device,
            options=EngineOptions(mode="parallel", num_streams=2),
        )
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
    def test_use_rows_false_same_results(self, uart_layout):
        rule = asap7.spacing_rule(asap7.M3)
        on = Engine(mode="parallel").check(uart_layout, rules=[rule])
        off = Engine(options=EngineOptions(mode="parallel", use_rows=False)).check(
            uart_layout, rules=[rule]
        )
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

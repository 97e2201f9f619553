"""Placed rings are the only geometry the check procedures read, and
violation rows the only thing they report.

Every gather — the windowed procedure's, the pair gathers, the magnified
fallbacks, the coloring graph — reads ``(vertices, mbr)`` rings off one
subtree walk (:class:`~repro.hierarchy.pruning.SubtreeWindow`). A deck of
width, area, spacing, corner, rectilinear and double-patterning rules on a
layout with L shapes and magnified placements therefore builds no
``Polygon``: not in a full check of either mode, not in a windowed check,
not in a recheck. (The only ``Polygon`` objects a check still builds are an
``ensures`` predicate's argument and the non-rectangular shapes of the
enclosure and min-overlap procedures.)

Every procedure returns violation rows, which go into tables as they are,
so none of those paths builds a ``Violation`` either. Neither does the full
ASAP7 deck on the perf ledger's dirty seed-7 jpeg@2 stream: a full check in
either mode, a quarter-chip window, the recheck of a one-wire edit, and the
``diff_markers`` of the check and the recheck. A ``Violation`` is built only
when a table is read as objects (``CheckResult.violations``).
"""

import os
import sys

import pytest

from repro.checks.base import Violation
from repro.core import Engine, EngineOptions
from repro.core.incremental import check_window, recheck
from repro.core.markers import diff_markers
from repro.core.rules import layer, polygons
from repro.gdsii import read_layout_bytes
from repro.geometry import Polygon, Rect
from repro.hierarchy.tree import HierarchyTree
from repro.workloads import asap7

from .test_rule_kind_matrix import METAL, kind_layout

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks", "ledger"))
import inputs as ledger_inputs  # noqa: E402

OPTIONS = {mode: EngineOptions(mode=mode, use_cache=False) for mode in ("sequential", "parallel")}


def deck():
    return [
        polygons().is_rectilinear().named("RECT"),
        layer(METAL).width().greater_than(9).named("W"),
        layer(METAL).area().greater_than(150).named("A"),
        layer(METAL).spacing().greater_than(8).named("S"),
        layer(METAL).corner_spacing().greater_than(12).named("CS"),
        layer(METAL).same_mask_spacing().greater_than(14).named("DP"),
    ]


@pytest.fixture
def built(monkeypatch):
    """The names of the ``Polygon`` and ``Violation`` constructors called
    while it is active."""
    made = []
    init = Polygon.__init__
    normalised = Polygon._normalised.__func__
    violation_init = Violation.__init__

    def spy_init(self, *args, **kwargs):
        made.append("Polygon")
        init(self, *args, **kwargs)

    def spy_normalised(cls, *args, **kwargs):
        made.append("Polygon._normalised")
        return normalised(cls, *args, **kwargs)

    def spy_violation(self, *args, **kwargs):
        made.append("Violation")
        violation_init(self, *args, **kwargs)

    monkeypatch.setattr(Polygon, "__init__", spy_init)
    monkeypatch.setattr(Polygon, "_normalised", classmethod(spy_normalised))
    monkeypatch.setattr(Violation, "__init__", spy_violation)
    return made


def edited(seed: int):
    """The magnified layout of ``seed`` and a copy with one more L shape
    (and a sliver) in a leaf that the magnified SREFs and the AREF place."""
    old, new = kind_layout(seed, magnified=True), kind_layout(seed, magnified=True)
    leaf = new.cell("leaf_0")
    leaf.add_polygon(METAL, Polygon([(0, 0), (0, 30), (8, 30), (8, 8), (30, 8), (30, 0)]))
    leaf.add_polygon(METAL, Polygon.from_rect_coords(40, 0, 44, 30))
    return old, new


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestNoPolygonIsBuilt:
    @pytest.mark.parametrize("mode", sorted(OPTIONS))
    def test_a_full_check(self, seed, mode, built):
        layout = kind_layout(seed, magnified=True)
        del built[:]
        report = Engine(options=OPTIONS[mode]).check(layout, rules=deck())
        assert report.total_violations and built == []

    def test_a_windowed_check(self, seed, built):
        layout = kind_layout(seed, magnified=True)
        windows = [Rect(0, 0, 600, 600), Rect(500, 500, 1400, 900), Rect(900, 0, 1800, 1800)]
        del built[:]
        report = check_window(layout, windows, rules=deck(), options=OPTIONS["sequential"])
        assert report.total_violations and built == []

    def test_a_recheck(self, seed, built):
        old, new = edited(seed)
        baseline = Engine(options=OPTIONS["sequential"]).check(old, rules=deck())
        del built[:]
        outcome = recheck(old, new, rules=deck(), options=OPTIONS["sequential"], cached=baseline)
        assert "windowed" in outcome.disposition.values() and built == []
        cold = Engine(options=OPTIONS["sequential"]).check(new, rules=deck())
        assert outcome.report.to_csv() == cold.to_csv()


@pytest.fixture(scope="module")
def ledger():
    """The ledger stream's base layout, its first one-wire edit, and a cold
    sequential report of the base under the full ASAP7 deck."""
    stream = ledger_inputs.synthesize(7, design="jpeg", scale=2, injected=40, n_edits=48)
    base, edit = (
        read_layout_bytes(data) for data in (stream.base_gds, stream.edit_gds(0))
    )
    base.set_top(ledger_inputs.TOP)
    edit.set_top(ledger_inputs.TOP)
    report = Engine(options=OPTIONS["sequential"]).check(base, rules=asap7.full_deck())
    return base, edit, report


class TestNoViolationIsBuilt:
    """The full ASAP7 deck on a dirty layout: every path reports through
    tables alone (the rings the enclosure rules judge may be polygons)."""

    @pytest.mark.parametrize("mode", sorted(OPTIONS))
    def test_a_full_check(self, mode, ledger, built):
        base, _, _ = ledger
        report = Engine(options=OPTIONS[mode]).check(base, rules=asap7.full_deck())
        assert report.total_violations and report.to_csv()
        assert "Violation" not in built

    def test_a_quarter_chip_window(self, ledger, built):
        base, _, _ = ledger
        chip = HierarchyTree(base).top_mbr(asap7.M1)
        quarter = Rect(chip.xlo, chip.ylo, (chip.xlo + chip.xhi) // 2, (chip.ylo + chip.yhi) // 2)
        report = check_window(
            base, quarter, rules=asap7.full_deck(), options=OPTIONS["sequential"]
        )
        assert report.total_violations and "Violation" not in built

    def test_a_recheck_and_its_diff(self, ledger, built):
        base, edit, baseline = ledger
        outcome = recheck(
            base, edit, rules=asap7.full_deck(), options=OPTIONS["sequential"], cached=baseline
        )
        assert "windowed" in outcome.disposition.values() and "Violation" not in built
        diff = diff_markers(baseline, outcome.report)
        assert sum(counts["new"] + counts["fixed"] for counts in diff.values())
        assert "Violation" not in built

"""Placed rings are the only geometry the check procedures read.

Every gather — the windowed procedure's, the pair gathers, the magnified
fallbacks, the coloring graph — reads ``(vertices, mbr)`` rings off one
subtree walk (:class:`~repro.hierarchy.pruning.SubtreeWindow`). A deck of
width, area, spacing, corner, rectilinear and double-patterning rules on a
layout with L shapes and magnified placements therefore builds no
``Polygon``: not in a full check of either mode, not in a windowed check,
not in a recheck. (The only ``Polygon`` objects a check still builds are an
``ensures`` predicate's argument and the non-rectangular shapes of the
enclosure and min-overlap procedures.)
"""

import pytest

from repro.core import Engine, EngineOptions
from repro.core.incremental import check_window, recheck
from repro.core.rules import layer, polygons
from repro.geometry import Polygon, Rect

from .test_rule_kind_matrix import METAL, kind_layout

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
    """The names of the ``Polygon`` constructors called while it is active."""
    made = []
    init = Polygon.__init__
    normalised = Polygon._normalised.__func__

    def spy_init(self, *args, **kwargs):
        made.append("Polygon")
        init(self, *args, **kwargs)

    def spy_normalised(cls, *args, **kwargs):
        made.append("Polygon._normalised")
        return normalised(cls, *args, **kwargs)

    monkeypatch.setattr(Polygon, "__init__", spy_init)
    monkeypatch.setattr(Polygon, "_normalised", classmethod(spy_normalised))
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

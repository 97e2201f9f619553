"""Every rule kind, seed by seed: one answer on every execution path.

For each seeded three-level layout (leaves under SREFs in all eight
orientations and an AREF inside a mid cell, L shapes, a non-rectilinear
marker layer) and each rule of a deck that names every kind once, three
computations must agree:

* the sequential engine (the oracle),
* the in-process parallel engine — marker for marker, in the same order,
* the kind's flat procedure (``kind_spec(kind).flat``) run
  over the fully flattened layout — as a set.

The deck's thresholds are tight enough that every kind reports violations
on some seed (``TestTheMatrixIsNotVacuous``), so an agreement is never the
trivial one of three empty lists.
"""

import functools
import random

import pytest

from repro.core import Engine, EngineOptions
from repro.core.plan import KIND_SPECS, kind_spec
from repro.core.rules import RuleKind, layer, polygons
from repro.geometry import Polygon, Transform, union_all
from repro.layout import CellReference, Layout, Repetition
from repro.layout.flatten import flatten_layer

METAL, VIA, MARKER = 1, 2, 3
SEEDS = range(10)
ORIENTATIONS = [(rotation, mirror) for rotation in (0, 90, 180, 270) for mirror in (False, True)]


def _four_vertices(polygon) -> bool:
    return len(polygon.vertices) == 4


def deck():
    """One rule of every kind, thresholds set to trip on the layouts below."""
    return [
        polygons().is_rectilinear().named("RECT"),
        layer(METAL).polygons().ensures(_four_vertices).named("ENS"),
        layer(METAL).width().greater_than(9).named("W"),
        layer(METAL).area().greater_than(150).named("A"),
        layer(METAL).spacing().greater_than(8).named("S"),
        layer(METAL).corner_spacing().greater_than(12).named("CS"),
        layer(METAL).same_mask_spacing().greater_than(14).named("DP"),
        layer(VIA).enclosure(layer(METAL)).greater_than(2).named("ENC"),
        layer(VIA).overlap(layer(METAL)).greater_than(20).named("OVL"),
    ]


RULE_NAMES = [rule.name for rule in deck()]


def kind_layout(seed: int) -> Layout:
    """Leaves of metal rectangles and L shapes, each with a 5x5 via at a
    margin of -1..4 (so some vias stick out of their metal), and on some
    leaves a right triangle on the marker layer; a mid cell holding one
    leaf as a 3x2 AREF; a top of SREFs of leaves and mids."""
    rng = random.Random(seed)
    layout = Layout(f"kinds-{seed}")
    leaves = []
    for index in range(3):
        leaf = layout.new_cell(f"leaf_{index}")
        for _ in range(rng.randint(2, 5)):
            x, y = rng.randint(0, 80), rng.randint(0, 80)
            w, h = rng.randint(6, 30), rng.randint(6, 30)
            if rng.random() < 0.3 and w > 10 and h > 10:
                nx, ny = rng.randint(4, w - 4), rng.randint(4, h - 4)
                outline = [(x, y), (x, y + h), (x + nx, y + h), (x + nx, y + ny), (x + w, y + ny), (x + w, y)]
                leaf.add_polygon(METAL, Polygon(outline))
            else:
                leaf.add_polygon(METAL, Polygon.from_rect_coords(x, y, x + w, y + h))
            margin = rng.randint(-1, 4)
            leaf.add_polygon(
                VIA, Polygon.from_rect_coords(x + margin, y + margin, x + margin + 5, y + margin + 5)
            )
        if rng.random() < 0.5:
            x, y = rng.randint(0, 80), rng.randint(0, 80)
            leaf.add_polygon(MARKER, Polygon([(x, y), (x + 20, y), (x, y + 20)], validate=False))
        leaves.append(leaf.name)
    pitch = rng.randint(90, 130)
    mid = layout.new_cell("mid")
    mid.add_reference(
        CellReference(rng.choice(leaves), Transform(), Repetition(3, 2, (pitch, 0), (0, pitch)))
    )
    top = layout.new_cell("top")
    for index in range(25):
        rotation, mirror = ORIENTATIONS[index % len(ORIENTATIONS)]
        child = "mid" if index % 8 == 0 else rng.choice(leaves)
        top.add_reference(
            CellReference(
                child,
                Transform(dx=rng.randint(0, 1500), dy=rng.randint(0, 1500), rotation=rotation, mirror_x=mirror),
            )
        )
    layout.set_top("top")
    return layout


def flat_violations(layout: Layout, rule):
    """The rule kind's flat procedure over the whole flattened layout."""
    flat = {number: flatten_layer(layout, number) for number in layout.layers()}

    def gather(number, margin):
        return list(flat.get(number, []))

    gather.rect = lambda number, rect: [p for p in flat.get(number, []) if p.mbr.overlaps(rect)]
    gather.window = union_all(p.mbr for shapes in flat.values() for p in shapes)
    return kind_spec(rule.kind).flat(rule, layout, gather)


@functools.lru_cache(maxsize=None)
def reports(seed: int):
    """(layout, sequential report, parallel report) of one seed."""
    layout = kind_layout(seed)
    out = [layout]
    for mode in ("sequential", "parallel"):
        with Engine(options=EngineOptions(mode=mode, use_cache=False)) as engine:
            out.append(engine.check(layout, rules=deck()))
    return tuple(out)


@pytest.mark.parametrize("name", RULE_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
class TestEveryPathAgrees:
    def test_parallel_reports_the_sequential_markers_in_order(self, seed, name):
        _, sequential, parallel = reports(seed)
        assert parallel.result(name).violations == sequential.result(name).violations

    def test_flat_procedure_reports_the_sequential_set(self, seed, name):
        layout, sequential, _ = reports(seed)
        want = sequential.result(name)
        got = frozenset(flat_violations(layout, want.rule))
        assert got == want.violation_set(), (
            f"only flat: {sorted(map(str, got - want.violation_set()))[:3]}, "
            f"only engine: {sorted(map(str, want.violation_set() - got))[:3]}"
        )


class TestTheMatrixIsNotVacuous:
    @pytest.mark.parametrize("name", RULE_NAMES)
    def test_every_rule_trips_on_at_least_three_seeds(self, name):
        dirty = [seed for seed in SEEDS if reports(seed)[1].result(name).num_violations]
        assert len(dirty) >= 3, dirty

    def test_the_deck_names_every_kind_once(self):
        assert sorted(rule.kind.value for rule in deck()) == sorted(kind.value for kind in RuleKind)

    def test_every_kind_has_a_flat_procedure(self):
        assert set(KIND_SPECS) == set(RuleKind)
        for kind, spec in KIND_SPECS.items():
            assert spec.kind is kind and callable(spec.flat), kind

"""The columnar sequential engine against the procedures it replaced.

``tests/reference_sequential.py`` keeps the per-instance intra walk, the
``Polygon``-based pair gather and the per-parent via descent. On random
3-level hierarchies — every orientation, AREFs, one magnified placement, L
shapes and a non-rectangular via — the engine must report the reference's
violations, as lists in canonical order, and the same pruning counters,
for every rule kind the hierarchical strategies execute.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.checks import sort_violations
from repro.core.rules import layer
from repro.core.sequential import SequentialBackend
from repro.geometry import Polygon, Transform
from repro.layout import CellReference, Layout, Repetition

from .reference_sequential import ReferenceSequentialBackend

VIA, METAL = 1, 2
ORIENTATIONS = [(rotation, mirror) for rotation in (0, 90, 180, 270) for mirror in (False, True)]

RULES = [
    layer(METAL).width().greater_than(12),
    layer(METAL).area().greater_than(700),
    layer(METAL).spacing().greater_than(9),
    layer(METAL).corner_spacing().greater_than(9),
    layer(VIA).enclosure(layer(METAL)).greater_than(3),
    layer(VIA).overlap(layer(METAL)).greater_than(60),
    layer(VIA).spacing().greater_than(6),
    layer(METAL).polygons().is_rectilinear(),
    layer(METAL).polygons().ensures(lambda polygon: len(polygon.vertices) == 4),
]
COUNTERS = ("checks_run", "checks_reused", "checks_refreshed", "pairs_considered", "pairs_pruned_mbr")

coord = st.integers(min_value=0, max_value=90)


@st.composite
def shapes(draw, cell, *, vias: int, metals: int) -> None:
    for _ in range(metals):
        x, y = draw(coord), draw(coord)
        w, h = draw(st.integers(6, 40)), draw(st.integers(6, 40))
        if draw(st.booleans()) and w > 8 and h > 8:
            nx, ny = draw(st.integers(3, w - 3)), draw(st.integers(3, h - 3))
            cell.add_polygon(
                METAL,
                Polygon([(x, y), (x, y + h), (x + nx, y + h), (x + nx, y + ny), (x + w, y + ny), (x + w, y)]),
            )
        else:
            cell.add_polygon(METAL, Polygon.from_rect_coords(x, y, x + w, y + h))
    for _ in range(vias):
        x, y = draw(coord), draw(coord)
        cell.add_polygon(VIA, Polygon.from_rect_coords(x, y, x + 8, y + 8))


def placement(draw, spread: int, magnification: int = 1) -> Transform:
    rotation, mirror = draw(st.sampled_from(ORIENTATIONS))
    offset = st.integers(min_value=-spread, max_value=spread)
    return Transform(draw(offset), draw(offset), rotation, mirror, magnification)


@st.composite
def hierarchies(draw) -> Layout:
    """top -> mids -> leaves: SREFs in all 8 orientations, an AREF per mid,
    one magnified placement, and an L-shaped via in one leaf."""
    layout = Layout("columnar")
    leaves = []
    for index in range(draw(st.integers(1, 3))):
        leaf = layout.new_cell(f"leaf{index}")
        draw(shapes(leaf, vias=draw(st.integers(0, 3)), metals=draw(st.integers(1, 3))))
        leaves.append(leaf.name)
    layout.cell(leaves[0]).add_polygon(
        VIA, Polygon([(0, 0), (0, 12), (6, 12), (6, 6), (12, 6), (12, 0)])
    )
    mids = []
    for index in range(draw(st.integers(1, 2))):
        mid = layout.new_cell(f"mid{index}")
        for _ in range(draw(st.integers(1, 3))):
            mid.add_reference(CellReference(draw(st.sampled_from(leaves)), placement(draw, 120)))
        pitch = draw(st.integers(60, 130))
        mid.add_reference(
            CellReference(
                draw(st.sampled_from(leaves)),
                placement(draw, 120),
                Repetition(draw(st.integers(1, 3)), 2, (pitch, 0), (0, pitch)),
            )
        )
        draw(shapes(mid, vias=2, metals=1))
        mids.append(mid.name)
    top = layout.new_cell("top")
    for _ in range(draw(st.integers(2, 5))):
        top.add_reference(CellReference(draw(st.sampled_from(mids)), placement(draw, 300)))
    top.add_reference(
        CellReference(draw(st.sampled_from(mids + leaves)), placement(draw, 300, magnification=2))
    )
    draw(shapes(top, vias=draw(st.integers(0, 6)), metals=draw(st.integers(0, 3))))
    layout.set_top("top")
    return layout


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hierarchies())
def test_columnar_engine_equals_the_polygon_reference(layout):
    engine, reference = SequentialBackend(layout), ReferenceSequentialBackend(layout)
    for rule in RULES:
        got = sort_violations(engine.run(rule))
        assert got == sort_violations(reference.run(rule)), rule.name
        got_stats, want_stats = engine.stats(), reference.stats()
        assert [got_stats[c] for c in COUNTERS] == [want_stats[c] for c in COUNTERS], rule.name

"""Every rule kind, seed by seed: one answer on every execution path.

For each seeded three-level layout (leaves under SREFs in all eight
orientations and an AREF inside a mid cell, L shapes, a non-rectilinear
marker layer) and each rule of a deck that names every kind once, three
computations must agree:

* the sequential engine (the oracle),
* the in-process parallel engine — marker for marker, in the same order,
* the kind's flat procedure (``kind_spec(kind).flat``) run
  over the fully flattened layout — as a set.

The same holds on a magnified variant of each layout (some SREFs and the
AREF at magnification 2), which sends every kind down its magnified
fallback. And the windowed procedure (``check_window``) over three windows
reports the full sequential report filtered to them, on both variants.

The deck's thresholds are tight enough that every kind reports violations
on some seed (``TestTheMatrixIsNotVacuous``), so an agreement is never the
trivial one of three empty lists.
"""

import functools
import random

import pytest

from repro.core import Engine, EngineOptions
from repro.core.incremental import check_window, filter_to_regions
from repro.core.plan import KIND_SPECS, compile_plan, kind_spec, make_backend
from repro.core.rules import RuleKind, layer, polygons
from repro.geometry import Polygon, Rect, Transform, union_all
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


def kind_layout(seed: int, magnified: bool = False) -> Layout:
    """Leaves of metal rectangles and L shapes, each with a 5x5 via at a
    margin of -1..4 (so some vias stick out of their metal), and on some
    leaves a right triangle on the marker layer; a mid cell holding one
    leaf as a 3x2 AREF; a top of SREFs of leaves and mids. ``magnified``
    puts the AREF and every third SREF at magnification 2."""
    rng = random.Random(seed)
    mag = 2 if magnified else 1
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
        CellReference(
            rng.choice(leaves),
            Transform(magnification=mag),
            Repetition(3, 2, (mag * pitch, 0), (0, mag * pitch)),
        )
    )
    top = layout.new_cell("top")
    for index in range(25):
        rotation, mirror = ORIENTATIONS[index % len(ORIENTATIONS)]
        child = "mid" if index % 8 == 0 else rng.choice(leaves)
        top.add_reference(
            CellReference(
                child,
                Transform(
                    dx=rng.randint(0, 1500),
                    dy=rng.randint(0, 1500),
                    rotation=rotation,
                    mirror_x=mirror,
                    magnification=mag if index % 3 == 1 else 1,
                ),
            )
        )
    layout.set_top("top")
    return layout


def flat_violations(layout: Layout, rule):
    """The rule kind's flat procedure over the whole flattened layout, its
    polygons handed over as the placed rings a gather returns."""
    flat = {number: flatten_layer(layout, number) for number in layout.layers()}

    def gather(number, margin, *, named=False):
        if named:
            return [(p.vertices, p.mbr, p.name) for p in flat.get(number, [])]
        return [(p.vertices, p.mbr) for p in flat.get(number, [])]

    gather.rect = lambda number, rect: [
        (p.vertices, p.mbr) for p in flat.get(number, []) if p.mbr.overlaps(rect)
    ]
    gather.window = union_all(p.mbr for shapes in flat.values() for p in shapes)
    return kind_spec(rule.kind).flat(rule, layout, gather)


@functools.lru_cache(maxsize=None)
def reports(seed: int, magnified: bool = False):
    """(layout, sequential report, parallel report) of one seed."""
    layout = kind_layout(seed, magnified)
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


@pytest.mark.parametrize("name", RULE_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
class TestMagnifiedPathsAgree:
    """The magnified variant: every kind's magnified fallback (intra
    re-checks, flat subtree pairs, the via pull-up, the walk's
    ``Transform`` branch) against the flat procedure and the parallel mode."""

    def test_parallel_reports_the_sequential_markers_in_order(self, seed, name):
        _, sequential, parallel = reports(seed, True)
        assert parallel.result(name).violations == sequential.result(name).violations

    def test_flat_procedure_reports_the_sequential_set(self, seed, name):
        layout, sequential, _ = reports(seed, True)
        want = sequential.result(name)
        assert frozenset(flat_violations(layout, want.rule)) == want.violation_set()


def three_windows(layout: Layout, seed: int):
    """Three windows over the layout's extent, one of them straddling
    another, sized to cut through cells and leave most of the chip out."""
    rng = random.Random(f"windows-{seed}")
    extent = union_all(p.mbr for n in layout.layers() for p in flatten_layer(layout, n))
    windows = []
    for _ in range(2):
        x, y = rng.randint(extent.xlo, extent.xhi - 300), rng.randint(extent.ylo, extent.yhi - 300)
        windows.append(Rect(x, y, x + rng.randint(80, 300), y + rng.randint(80, 300)))
    first = windows[0]
    windows.append(Rect(first.xhi - 20, first.ylo + 10, first.xhi + 150, first.yhi + 40))
    return windows


@pytest.mark.parametrize("magnified", [False, True], ids=["plain", "magnified"])
@pytest.mark.parametrize("seed", SEEDS)
class TestWindowedMatchesFiltered:
    """``check_window`` over three windows, every kind: the full sequential
    report filtered to the windows, marker for marker."""

    def test_every_kind_equals_the_filtered_full_report(self, seed, magnified):
        layout, sequential, _ = reports(seed, magnified)
        windows = three_windows(layout, seed)
        windowed = check_window(
            layout, windows, rules=deck(), options=EngineOptions(use_cache=False)
        )
        filtered = filter_to_regions(sequential, windows)
        for name in RULE_NAMES:
            assert windowed.result(name).violations == filtered.result(name).violations, name


class TestTheMatrixIsNotVacuous:
    @pytest.mark.parametrize("name", RULE_NAMES)
    def test_every_rule_trips_on_at_least_three_seeds(self, name):
        dirty = [seed for seed in SEEDS if reports(seed)[1].result(name).num_violations]
        assert len(dirty) >= 3, dirty

    @pytest.mark.parametrize("name", RULE_NAMES)
    def test_every_rule_trips_on_a_magnified_seed(self, name):
        dirty = [seed for seed in SEEDS if reports(seed, True)[1].result(name).num_violations]
        assert len(dirty) >= 3, dirty

    def test_the_windows_see_markers_of_every_kind(self):
        seen = set()
        for seed in SEEDS:
            for magnified in (False, True):
                layout, sequential, _ = reports(seed, magnified)
                filtered = filter_to_regions(sequential, three_windows(layout, seed))
                seen.update(r.rule.name for r in filtered.results if r.num_violations)
        assert seen == set(RULE_NAMES)

    def test_the_deck_names_every_kind_once(self):
        assert sorted(rule.kind.value for rule in deck()) == sorted(kind.value for kind in RuleKind)

    def test_every_kind_has_a_flat_procedure(self):
        assert set(KIND_SPECS) == set(RuleKind)
        for kind, spec in KIND_SPECS.items():
            assert spec.kind is kind and callable(spec.flat), kind


# ---------------------------------------------------------------------------
# The int32 edges: coordinates where a 32-bit column would overflow
# ---------------------------------------------------------------------------

#: The largest coordinate GDSII stores.
EDGE = 2**31 - 1


def edge_deck():
    """The kinds whose parallel kernels read packed coordinate columns."""
    return [
        layer(METAL).width().greater_than(9).named("W"),
        layer(METAL).area().greater_than(150).named("A"),
        layer(METAL).spacing().greater_than(8).named("S"),
        layer(METAL).corner_spacing().greater_than(12).named("CS"),
        layer(VIA).enclosure(layer(METAL)).greater_than(2).named("ENC"),
    ]


def add_motif(cell, x0: int, y0: int) -> None:
    """One violation of every kind of :func:`edge_deck` in ``[x0, x0 + 100]
    x [y0, y0 + 100]``: a 7-wide sliver, a pair 5 apart, a 10x10 square 6
    diagonal from its neighbour's corner, and a via 1 inside its metal."""
    for xlo, ylo, xhi, yhi in [
        (0, 0, 7, 40),
        (20, 0, 40, 40),
        (45, 0, 65, 40),
        (0, 60, 10, 70),
        (16, 76, 30, 90),
        (70, 60, 100, 100),
    ]:
        cell.add_polygon(METAL, Polygon.from_rect_coords(x0 + xlo, y0 + ylo, x0 + xhi, y0 + yhi))
    for xlo, ylo in [(71, 61), (85, 80)]:
        x, y = x0 + xlo, y0 + ylo
        cell.add_polygon(VIA, Polygon.from_rect_coords(x, y, x + 5, y + 5))


def extremes_layout() -> Layout:
    """Stored coordinates at +-(2**31 - 1): a leaf with one motif ending at
    (EDGE, EDGE) and one starting at (-EDGE, -EDGE), placed as is and
    mirrored, and a motif of the top's own ending at x = EDGE. The layer
    spans about 2**32, so its packs stay int64."""
    layout = Layout("int32-extremes")
    leaf = layout.new_cell("edge")
    add_motif(leaf, EDGE - 100, EDGE - 100)
    add_motif(leaf, -EDGE, -EDGE)
    top = layout.new_cell("top")
    top.add_reference(CellReference("edge", Transform()))
    top.add_reference(CellReference("edge", Transform(mirror_x=True)))
    add_motif(top, EDGE - 100, -50)
    layout.set_top("top")
    return layout


def beyond_layout() -> Layout:
    """A motif stored ending at (EDGE, EDGE) that SREF offsets push past
    2**31 in the top frame (through a mid cell, directly, and in an AREF).
    The layer spans about 2 000, so its packs are int32 offsets from an
    origin above 2**31."""
    layout = Layout("int32-beyond")
    leaf = layout.new_cell("far")
    add_motif(leaf, EDGE - 100, EDGE - 100)
    mid = layout.new_cell("mid")
    mid.add_reference(CellReference("far", Transform(dx=1000, dy=1000)))
    top = layout.new_cell("top")
    top.add_reference(CellReference("mid", Transform()))
    top.add_reference(CellReference("far", Transform(dx=1300, dy=1000)))
    top.add_reference(
        CellReference("far", Transform(dx=1600, dy=1000), Repetition(2, 2, (200, 0), (0, 200)))
    )
    layout.set_top("top")
    return layout


def aref_layout() -> Layout:
    """A 4x3 AREF whose columns and rows step across 0, beside rotated and
    mirrored SREFs of the same motif."""
    layout = Layout("int32-aref")
    leaf = layout.new_cell("cell")
    add_motif(leaf, 0, 0)
    top = layout.new_cell("top")
    top.add_reference(
        CellReference("cell", Transform(dx=-300, dy=-150), Repetition(4, 3, (150, 0), (0, 150)))
    )
    top.add_reference(CellReference("cell", Transform(dx=-600, dy=0, rotation=90)))
    top.add_reference(
        CellReference("cell", Transform(dx=-700, dy=400, rotation=180, mirror_x=True))
    )
    layout.set_top("top")
    return layout


EDGE_LAYOUTS = {
    "extremes": extremes_layout,
    "beyond": beyond_layout,
    "aref": aref_layout,
}


@functools.lru_cache(maxsize=None)
def edge_reports(name: str):
    """(layout, sequential report, parallel report, parallel backend)."""
    layout = EDGE_LAYOUTS[name]()
    out = [layout]
    for mode in ("sequential", "parallel"):
        with Engine(options=EngineOptions(mode=mode, use_cache=False)) as engine:
            out.append(engine.check(layout, rules=edge_deck()))
    options = EngineOptions(mode="parallel", use_cache=False)
    backend = make_backend(compile_plan(layout, edge_deck(), options))
    return (*out, backend)


@pytest.mark.parametrize("rule", [rule.name for rule in edge_deck()])
@pytest.mark.parametrize("name", sorted(EDGE_LAYOUTS))
class TestInt32Edges:
    """Parallel == sequential == flat procedure where 32-bit columns would
    overflow, in both column widths."""

    def test_parallel_reports_the_sequential_markers_in_order(self, name, rule):
        _, sequential, parallel, _ = edge_reports(name)
        want = sequential.result(rule)
        assert want.num_violations  # every kind trips on every layout
        assert parallel.result(rule).violations == want.violations

    def test_flat_procedure_reports_the_sequential_set(self, name, rule):
        layout, sequential, _, _ = edge_reports(name)
        want = sequential.result(rule)
        assert frozenset(flat_violations(layout, want.rule)) == want.violation_set()


class TestInt32EdgeFrames:
    """Each edge layout runs the column width it was built for."""

    @pytest.mark.parametrize(
        "name, dtype", [("extremes", "int64"), ("beyond", "int32"), ("aref", "int32")]
    )
    def test_packs_take_the_width_the_extent_allows(self, name, dtype):
        backend = edge_reports(name)[3]
        for layers, value in [(METAL, 8), (METAL, 12), ((VIA, METAL), 2)]:
            frame = backend._frame(layers, value)
            assert frame.dtype.__name__ == dtype, (layers, frame)

    def test_narrow_frames_sit_past_the_int32_edge_and_across_zero(self):
        assert edge_reports("beyond")[3]._frame(METAL, 8).x > EDGE
        aref = edge_reports("aref")[3]._frame(METAL, 8)
        assert aref.x < 0 and aref.y < 0  # and the AREF reaches x, y > 0

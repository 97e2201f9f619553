"""The instance table: every device buffer of the parallel mode, held to the
recursive per-instance packers it replaced (``tests/reference_packers.py``)
as multisets, and the mode's reports held to the sequential oracle."""

from collections import Counter

import numpy as np
import pytest

from . import reference_packers as ref
from repro.core import Engine, EngineOptions
from repro.core.rules import layer
from repro.geometry import Polygon, Transform
from repro.gpu.kernels import edges_from_vertices, pack_corners, pack_edges
from repro.hierarchy.edgepack import InstanceTable
from repro.hierarchy.pruning import level_items
from repro.hierarchy.tree import HierarchyTree
from repro.layout import CellReference, Layout, Repetition
from repro.layout.flatten import flatten_layer
from repro.partition.rows import partition_rects
from repro.workloads import asap7, build_design

from .test_columnar_ingest import ledger_dirty_jpeg

METAL, VIA = 1, 2
ORIENTATIONS = [(rotation, mirror) for rotation in (0, 90, 180, 270) for mirror in (False, True)]


def nested_layout() -> Layout:
    """top -> mid -> leaf/other: all 8 orientations, AREFs at two levels, a
    mirrored magnification-2 placement, an L-shape, and the via layer absent
    from ``other``'s subtree and from some top-level placements."""
    layout = Layout("nested")
    leaf = layout.new_cell("leaf")
    leaf.add_polygon(METAL, Polygon.from_rect_coords(0, 0, 10, 30))
    leaf.add_polygon(METAL, Polygon([(0, 40), (0, 70), (20, 70), (20, 60), (10, 60), (10, 40)]))
    leaf.add_polygon(VIA, Polygon.from_rect_coords(2, 4, 6, 8))
    other = layout.new_cell("other")
    other.add_polygon(METAL, Polygon.from_rect_coords(0, 0, 40, 12))
    other.add_polygon(METAL, Polygon.from_rect_coords(0, 20, 40, 26))
    mid = layout.new_cell("mid")
    mid.add_polygon(METAL, Polygon.from_rect_coords(-30, 0, -20, 90))
    for index, (rotation, mirror) in enumerate(ORIENTATIONS[1::3]):
        mid.add_reference(
            CellReference("leaf", Transform(dx=120 * index, dy=15, rotation=rotation, mirror_x=mirror))
        )
    mid.add_reference(CellReference("other", Transform(dx=0, dy=200, rotation=90)))
    mid.add_reference(
        CellReference("leaf", Transform(dx=500, dy=0), Repetition(2, 3, (45, 0), (0, 110)))
    )
    top = layout.new_cell("top")
    for index, (rotation, mirror) in enumerate(ORIENTATIONS):
        top.add_reference(
            CellReference(
                "mid",
                Transform(dx=1500 * (index % 4), dy=1600 * (index // 4), rotation=rotation, mirror_x=mirror),
            )
        )
    top.add_reference(
        CellReference("mid", Transform(dx=9000, dy=500, rotation=270, mirror_x=True, magnification=2))
    )
    top.add_reference(CellReference("other", Transform(dx=-900, dy=-400, rotation=180)))
    top.add_reference(
        CellReference(
            "leaf", Transform(dx=-900, dy=3000, mirror_x=True), Repetition(3, 2, (60, 0), (0, 1700))
        )
    )
    top.add_polygon(METAL, Polygon.from_rect_coords(-2000, -2000, -1950, -1960))
    top.add_polygon(METAL, Polygon([(-2000, 100), (-2000, 180), (-1900, 180), (-1900, 150), (-1960, 150), (-1960, 100)]))
    top.add_polygon(VIA, Polygon.from_rect_coords(-1990, -1990, -1980, -1980))
    layout.set_top("top")
    return layout


def rows_of(tree, layers, value):
    """Level items of ``layers`` back to back, their row lists, and the row
    id per item."""
    items = [item for L in layers for item in level_items(tree, tree.top, L)]
    member_rows = [row.members for row in partition_rects([it.mbr for it in items], value).rows]
    item_rows = np.zeros(len(items), dtype=np.int64)
    for index, members in enumerate(member_rows):
        item_rows[members] = index
    return items, member_rows, item_rows


def edge_rows(*bufs):
    """(vertical, fixed, lo, hi, interior, segment) per edge, grouped by polygon id."""
    groups = {}
    for buf in bufs:
        segment = buf.segment if buf.segment is not None else np.zeros(len(buf), dtype=np.int64)
        for row in zip(
            buf.poly.tolist(), buf.fixed.tolist(), buf.lo.tolist(), buf.hi.tolist(),
            buf.interior.tolist(), segment.tolist(),
        ):
            groups.setdefault(row[0], []).append((buf.vertical,) + row[1:])
    return groups


def polygon_multiset(groups):
    return Counter(tuple(sorted(edges)) for edges in groups.values())


@pytest.fixture(scope="module")
def tree():
    return HierarchyTree(nested_layout())


class TestBuffersEqualTheReferencePackers:
    @pytest.mark.parametrize("value", [10, 400])
    def test_fused_edges(self, tree, value):
        items, member_rows, item_rows = rows_of(tree, [METAL], value)
        assert len(member_rows) > 1
        packer = ref.RecursiveEdgePacker(tree, METAL)
        want = ref.concat_segmented(
            [ref.row_edge_buffers([items[m] for m in row], packer) for row in member_rows]
        )
        got = InstanceTable(tree).edges(METAL, item_rows)
        assert got.num_polygons == want.num_polygons
        assert polygon_multiset(edge_rows(got.vertical, got.horizontal)) == polygon_multiset(
            edge_rows(want.vertical, want.horizontal)
        )

    def test_every_edge_of_one_flat_polygon_shares_an_id_and_no_id_is_shared(self, tree):
        flat = flatten_layer(tree.layout, METAL)
        got = InstanceTable(tree).edges(METAL)
        assert got.vertical.segment is None and got.horizontal.segment is None
        groups = edge_rows(got.vertical, got.horizontal)
        assert sorted(groups) == list(range(len(flat))) == list(range(got.num_polygons))
        want = Counter()
        for polygon in flat:
            packed = pack_edges([polygon])
            want[tuple(sorted(e for edges in edge_rows(packed["v"], packed["h"]).values() for e in edges))] += 1
        assert polygon_multiset(groups) == want

    def test_segment_is_the_row_of_the_top_level_item(self, tree):
        items, member_rows, item_rows = rows_of(tree, [METAL], 10)
        got = InstanceTable(tree).edges(METAL, item_rows)
        spans = [
            (min(items[m].mbr.ylo for m in row), max(items[m].mbr.yhi for m in row))
            for row in member_rows
        ]
        for buf in (got.vertical, got.horizontal):
            ys = (buf.lo, buf.hi) if buf.vertical else (buf.fixed, buf.fixed)
            for lo, hi, segment in zip(ys[0].tolist(), ys[1].tolist(), buf.segment.tolist()):
                assert spans[segment][0] <= lo and hi <= spans[segment][1]

    def test_item_mbrs_are_the_level_items(self, tree):
        for L in (METAL, VIA, 99):
            want = [tuple(item.mbr) for item in level_items(tree, tree.top, L)]
            assert list(map(tuple, InstanceTable(tree).item_mbrs(L).tolist())) == want

    def test_rect_rows_and_per_row_all_rect(self, tree):
        items, member_rows, item_rows = rows_of(tree, [VIA, METAL], 6)
        num_vias = len(level_items(tree, tree.top, VIA))
        table = InstanceTable(tree)
        flags = set()
        for L, lo, hi in ((VIA, 0, num_vias), (METAL, num_vias, len(items))):
            packer = ref.RecursiveRectPacker(tree, L)
            got = table.rect_rows(L, item_rows[lo:hi], len(member_rows))
            assert len(got) == len(member_rows)
            for row, buf in zip(member_rows, got):
                want = ref.row_rect_buffer([items[m] for m in row if lo <= m < hi], packer)
                assert Counter(map(tuple, buf.rects.tolist())) == Counter(
                    map(tuple, want.rects.tolist())
                )
                assert buf.all_rect == want.all_rect
                flags.add(buf.all_rect)
        assert flags == {True, False}

    def test_corners(self, tree):
        items, member_rows, item_rows = rows_of(tree, [METAL], 10)
        got = InstanceTable(tree).corners(METAL, item_rows)
        want = Counter()
        for index, row in enumerate(member_rows):
            polygons = []
            for item in (items[m] for m in row):
                if item.index is not None:
                    polygons.append(tree.top.rings(METAL).polygon(item.index))
                else:
                    polygons.extend(
                        p.transformed(item.placement)
                        for p in flatten_layer(tree.layout, METAL, top=item.cell_name)
                    )
            buf = pack_corners(polygons)
            want.update(
                zip(buf.x.tolist(), buf.y.tolist(), buf.qx.tolist(), buf.qy.tolist(), [index] * len(buf))
            )
        assert want == Counter(
            zip(got.x.tolist(), got.y.tolist(), got.qx.tolist(), got.qy.tolist(), got.segment.tolist())
        )
        # Corners of one polygon share an id: four per rectangle, five per L.
        assert set(Counter(got.poly.tolist()).values()) == {4, 5}

    def test_definitions(self, tree):
        definitions, instances = ref.definition_instances(tree, METAL)
        got = InstanceTable(tree).definitions(METAL)
        polygons = [p for _, polys in definitions for p in polys]
        want = pack_edges(polygons)
        mine = edges_from_vertices(got.xs, got.ys, got.counts)
        assert polygon_multiset(edge_rows(mine["v"], mine["h"])) == polygon_multiset(
            edge_rows(want["v"], want["h"])
        )
        assert Counter(map(tuple, got.mbrs.tolist())) == Counter(tuple(p.mbr) for p in polygons)
        # The same units, placed the same way: one per definition with rigid
        # placements, one per magnified placement (here: every cell under
        # the magnified ``mid``).
        assert len(got.placements) == len(definitions) > len(tree.layout.cells)

        def placed(units):
            return Counter(
                (mbr, len(where)) for mbrs, where in units for mbr in mbrs
            )

        mine_units = [
            (sorted(map(tuple, got.mbrs[got.owner == unit].tolist())), got.placements[unit])
            for unit in range(len(got.placements))
        ]
        want_units = [
            (sorted(tuple(p.mbr) for p in polys), instances[index])
            for index, (_, polys) in enumerate(definitions)
        ]
        assert placed(mine_units) == placed(want_units)

    def test_a_layer_nobody_holds(self, tree):
        table = InstanceTable(tree)
        empty = np.zeros(0, dtype=np.int64)
        pair = table.edges(99, empty)
        assert pair.num_edges == 0 and pair.num_polygons == 0
        assert pair.vertical.segment is not None
        assert len(table.corners(99, empty)) == 0
        assert table.rect_rows(99, empty, 0) == []
        assert len(table.definitions(99).counts) == 0

    def test_the_walk_is_per_definition(self, tree):
        placements = InstanceTable(tree).placements
        counts = tree.layout.instance_counts()
        assert {name: len(rows) for name, rows in placements.items()} == {
            name: counts[name] for name in ("top", "mid", "leaf", "other")
        }


DECK = [
    layer(METAL).width().greater_than(12),
    layer(METAL).area().greater_than(500),
    layer(METAL).spacing().greater_than(25),
    layer(METAL).corner_spacing().greater_than(40),
    layer(VIA).enclosure(layer(METAL)).greater_than(3),
]


class TestReportsEqualTheOracle:
    def test_nested_layout_every_kind(self):
        layout = nested_layout()
        par = Engine(mode="parallel").check(layout, rules=DECK)
        seq = Engine(mode="sequential").check(layout, rules=DECK)
        assert par.to_csv(expand_instances=True) == seq.to_csv(expand_instances=True)
        assert all(result.num_violations for result in seq.results)

    def test_seeded_dirty_jpeg(self):
        layout = ledger_dirty_jpeg(seed=3, scale=2)
        reports = {}
        for mode in ("parallel", "sequential"):
            with Engine(options=EngineOptions(mode=mode, use_cache=False)) as engine:
                reports[mode] = engine.check(layout, rules=asap7.full_deck())
        assert reports["parallel"].total_violations > 1000
        assert reports["parallel"].to_csv(expand_instances=True) == reports[
            "sequential"
        ].to_csv(expand_instances=True)

    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_clean_jpeg(self, scale):
        layout = build_design("jpeg", scale)
        deck = asap7.full_deck()
        par = Engine(options=EngineOptions(mode="parallel", use_cache=False)).check(layout, rules=deck)
        seq = Engine(options=EngineOptions(mode="sequential", use_cache=False)).check(layout, rules=deck)
        assert par.to_csv(expand_instances=True) == seq.to_csv(expand_instances=True)


class TestWorkBounds:
    def test_a_parallel_check_of_rectangles_views_no_polygon(self):
        layout = build_design("uart")
        report = Engine(options=EngineOptions(mode="parallel", use_cache=False)).check(
            layout, rules=asap7.full_deck()
        )
        assert len(report.results) == 12
        rings = [
            cell.rings(L) for cell in layout.cells.values() for L in cell.local_layers()
        ]
        assert len(rings) > 10 and all(r._view is None for r in rings)

    def test_edit_after_a_check_then_check_again(self):
        """No table keeps a ``RingBuffer`` array exported: a checked cell can
        grow, and the next check of the same object sees the new polygon."""
        layout = build_design("uart")
        engine = Engine(options=EngineOptions(mode="parallel", use_cache=False))
        deck = asap7.full_deck()
        before = engine.check(layout, rules=deck)
        kept_alive = engine.last_checker  # and with it the plan's table
        sliver = Polygon.from_rect_coords(100000, 100000, 100004, 100400)
        for name in ("top", "INVx1"):
            assert layout.cell(name).rings(asap7.M1) or layout.cell(name).rings(asap7.M2)
        layout.cell("top").add_polygon(asap7.M2, sliver)
        layout.cell("INVx1").add_polygon(asap7.M1, Polygon.from_rect_coords(0, 400, 4, 800))
        after = engine.check(layout, rules=deck)
        assert kept_alive is not engine.last_checker
        placements = layout.instance_counts()["INVx1"]
        assert after.total_violations >= before.total_violations + 1 + placements
        assert after.to_csv() == Engine(mode="sequential").check(layout, rules=deck).to_csv()

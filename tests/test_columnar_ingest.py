"""Columnar ingest: the fused BOUNDARY decode, the per-(cell, layer) ring
buffers it fills, and the consumers that read them instead of ``Polygon``s.

References are kept in ``tests/``: the record-by-record reader
(``reference_reader.py``, also wired under every ``read_layout_bytes`` of
``test_gdsii_malformed.py`` and ``test_property_gdsii.py``) and, below, the
``Counter``-of-polygons diff this PR put a bytes comparison in front of.
"""

import pickle
from collections import Counter

import pytest

from repro.core import Engine, EngineOptions, recheck
from repro.core.diff import _cell_local_dirty
from repro.core.packstore import layer_geometry_digest
from repro.gdsii import (
    GdsBoundary,
    GdsLibrary,
    GdsSref,
    GdsStructure,
    read_bytes,
    read_layout_bytes,
    reader,
    write_bytes,
)
from repro.gdsii.records import RecordType, make_record, pack_record, xy_record
from repro.geometry import Point, Polygon, Rect
from repro.hierarchy.tree import HierarchyTree
from repro.layout import Cell, Layout, gdsii_from_layout, layout_from_gdsii
from repro.layout.cell import RingBuffer
from repro.spatial.regions import RegionSet
from repro.workloads import LIBRARY, InjectionPlan, asap7, build_design, inject_violations

from .reference_reader import checked_read_layout, reference_snapshot, snapshot

L_SHAPE = [(0, 0), (0, 30), (10, 30), (10, 10), (40, 10), (40, 0)]


def ledger_dirty_jpeg(seed=7, scale=1):
    """The perf ledger's seeded dirty design (recipe of
    ``benchmarks/ledger/inputs.py::synthesize``, copied: the ledger is not on
    the test path)."""
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


@pytest.fixture(scope="module")
def ledger_stream():
    return write_bytes(gdsii_from_layout(ledger_dirty_jpeg()))


def boundary_bytes(layer, points):
    """One canonical BOUNDARY element, as the ledger splices its edit wire in."""
    return b"".join(
        pack_record(record)
        for record in (
            make_record(RecordType.BOUNDARY),
            make_record(RecordType.LAYER, [layer]),
            make_record(RecordType.DATATYPE, [0]),
            xy_record(list(points) + [points[0]]),
            make_record(RecordType.ENDEL),
        )
    )


@pytest.fixture()
def built_polygons(monkeypatch):
    """Every ``Polygon`` made from here on, however it was made."""
    built = []
    init, wrap = Polygon.__init__, Polygon._normalised.__func__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counting_wrap(cls, *args, **kwargs):
        polygon = wrap(cls, *args, **kwargs)
        built.append(polygon)
        return polygon

    monkeypatch.setattr(Polygon, "__init__", counting_init)
    monkeypatch.setattr(Polygon, "_normalised", classmethod(counting_wrap))
    return built


# ---------------------------------------------------------------------------
# (a) The fused reader against the record-by-record walk


def small_stream():
    """Rectangles from both directions, an L, a named rectangle, a reference."""
    leaf = GdsStructure(
        "LEAF",
        [
            GdsBoundary(1, 0, [(0, 0), (0, 10), (10, 10), (10, 0)]),
            GdsBoundary(1, 0, [(20, 0), (30, 0), (30, 10), (20, 10)]),
            GdsBoundary(2, 5, list(L_SHAPE)),
            GdsBoundary(2, 0, [(50, 0), (50, 10), (60, 10), (60, 0)], {1: "net"}),
        ],
    )
    top = GdsStructure("TOP", [GdsSref("LEAF", (100, 0))])
    return write_bytes(GdsLibrary(name="SMALL", structures=[leaf, top]))


class TestFusedReader:
    def test_every_one_byte_change_and_every_truncation_of_a_small_stream(self):
        """Same layout or same error as the reference, whatever the damage."""
        data = small_stream()
        assert checked_read_layout(data).cell("LEAF").num_local_polygons == 4
        outcomes = Counter()
        for at in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(data)
                damaged[at] ^= mask
                try:
                    checked_read_layout(bytes(damaged))
                    outcomes["parsed"] += 1
                except Exception as error:  # the reference raised the same one
                    outcomes[type(error).__name__] += 1
        for cut in range(len(data)):
            with pytest.raises(Exception):
                checked_read_layout(data[:cut])
        assert outcomes["parsed"] and outcomes["GdsiiError"] and outcomes["GeometryError"]

    def test_the_ledger_stream_and_its_spliced_edit(self, ledger_stream):
        wire = [(100, 90_000), (110, 90_000), (110, 90_400), (100, 90_400)]
        endlib = len(ledger_stream) - 4
        # The top structure is written last: its ENDSTR sits right before ENDLIB.
        edited = (
            ledger_stream[: endlib - 4]
            + boundary_bytes(asap7.M2, wire)
            + ledger_stream[endlib - 4 :]
        )
        base, new = checked_read_layout(ledger_stream), checked_read_layout(edited)
        assert new.cell("top").polygons(asap7.M2)[-1] == Polygon([Point(*p) for p in wire])
        assert new.cell("top").num_local_polygons == base.cell("top").num_local_polygons + 1

    def test_the_fast_path_is_what_reads_the_ledger_stream(self, ledger_stream, monkeypatch):
        slow = []
        walked = reader._boundary
        monkeypatch.setattr(
            reader, "_boundary", lambda cur, emit: slow.append(cur.start) or walked(cur, emit)
        )
        layout = read_layout_bytes(ledger_stream)
        total = sum(cell.num_local_polygons for cell in layout.cells.values())
        named = sum(
            1 for cell in layout.cells.values() for _, p in cell.all_polygons() if p.name
        )
        assert total > 1000 and named > 0
        assert len(slow) == named  # only elements with properties took the walk

    @pytest.mark.parametrize(
        "tail",
        [
            b"",  # stream ends inside the element
            pack_record(make_record(RecordType.PROPATTR, [1])),
            pack_record(make_record(RecordType.ENDSTR)),
        ],
        ids=["truncated", "propattr", "endstr"],
    )
    def test_what_is_not_an_endel_falls_through(self, tail):
        """An element whose XY is not followed by ENDEL is the walk's to judge."""
        data = small_stream()
        cut = data.index(pack_record(make_record(RecordType.ENDEL)))
        damaged = data[:cut] + tail + data[cut + 4 :] if tail else data[:cut]
        with pytest.raises(Exception) as raised:
            checked_read_layout(damaged)
        assert "expected" in str(raised.value)

    def test_model_sink_and_two_step_path_see_the_same_elements(self, ledger_stream):
        library = read_bytes(ledger_stream)
        assert write_bytes(library) == ledger_stream
        assert snapshot(layout_from_gdsii(library)) == reference_snapshot(ledger_stream)


# ---------------------------------------------------------------------------
# (b) Buffer and view stay one thing


def table(cell, layer):
    rings = cell.rings(layer)
    return list(rings.coords), list(rings.offsets), list(rings.mbrs), dict(rings.names)


class TestBufferAndView:
    def test_add_before_and_after_materialisation(self):
        cell = Cell("c")
        a = Polygon.from_rect_coords(0, 0, 10, 20)
        b = Polygon([Point(*p) for p in L_SHAPE], name="ell")
        cell.add_polygon(1, a)
        first = cell.polygons(1)
        assert first == (a,) and isinstance(first, tuple)
        cell.add_polygon(1, b)
        assert first == (a,)  # a stale view is frozen, not half-updated
        view = cell.polygons(1)
        assert [(p.vertices, p.name) for p in view] == [(a.vertices, ""), (b.vertices, "ell")]
        assert cell.polygons(1) is view  # built once per edit
        assert [p.mbr for p in view] == [Rect(0, 0, 10, 20), Rect(0, 0, 40, 30)]
        assert table(cell, 1) == (
            [c for p in (a, b) for v in p.vertices for c in v],
            [0, 8, 20],
            [0, 0, 10, 20, 0, 0, 40, 30],
            {1: "ell"},
        )
        assert cell.num_local_polygons == 2 and cell.local_layers() == [1]
        assert cell.polygons(9) == () and cell.rings(9) is None

    def test_single_ring_materialisation_matches_the_view(self):
        rings = RingBuffer()
        shapes = [
            Polygon.from_rect_coords(5, 5, 9, 9, name="r"),
            Polygon([Point(*p) for p in L_SHAPE]),
            Polygon([Point(0, 0), Point(7, 3), Point(2, 9)], validate=False),  # not rectilinear
        ]
        for polygon in shapes:
            rings.append(polygon)
        singles = [rings.polygon(i) for i in range(len(rings))]
        assert all(p._mbr is not None for p in singles)  # read off the MBR table
        for single, viewed, given in zip(singles, rings.polygons(), shapes):
            assert single.vertices == viewed.vertices == given.vertices
            assert single.name == viewed.name == given.name
            assert single.mbr == viewed.mbr == given.mbr
        assert rings.polygon(1) is rings.polygons()[1]  # the view, once it exists

    def test_remove_polygon(self):
        cell = Cell("c")
        shapes = [Polygon.from_rect_coords(10 * i, 0, 10 * i + 5, 5, name=f"n{i}") for i in range(4)]
        shapes[2].name = ""
        for polygon in shapes:
            cell.add_polygon(3, polygon)
        assert cell.remove_polygon(3, 1) == shapes[1]
        assert [p.name for p in cell.polygons(3)] == ["n0", "", "n3"]
        assert cell.remove_polygon(3, -1).name == "n3"
        assert table(cell, 3) == (
            [c for p in (shapes[0], shapes[2]) for v in p.vertices for c in v],
            [0, 8, 16],
            [0, 0, 5, 5, 20, 0, 25, 5],
            {0: "n0"},
        )
        with pytest.raises(IndexError):
            cell.remove_polygon(3, 2)
        with pytest.raises(IndexError):
            cell.remove_polygon(4, 0)
        cell.remove_polygon(3, 0)
        cell.remove_polygon(3, 0)
        assert cell.local_layers() == [] and cell.polygons(3) == ()

    def test_a_coordinate_the_arrays_cannot_hold_changes_nothing(self):
        cell = Cell("c")
        cell.add_polygon(1, Polygon.from_rect_coords(0, 0, 4, 4))
        before = table(cell, 1)
        with pytest.raises(OverflowError):
            cell.add_polygon(1, Polygon.from_rect_coords(0, 0, 4, 1 << 70))
        assert table(cell, 1) == before and len(cell.polygons(1)) == 1

    def test_pickle_ships_the_buffers_not_the_view(self):
        layout = build_design("uart")
        lean = pickle.dumps(layout)
        for cell in layout.cells.values():
            for layer in cell.local_layers():
                cell.polygons(layer)  # every view exists on the sending side
        assert pickle.dumps(layout) == lean
        clone = pickle.loads(pickle.dumps(layout, protocol=pickle.HIGHEST_PROTOCOL))
        assert all(
            cell.rings(layer)._view is None
            for cell in clone.cells.values()
            for layer in cell.local_layers()
        )
        assert snapshot(clone) == snapshot(layout)

    def test_two_jobs_report_what_one_does(self):
        layout = read_layout_bytes(write_bytes(gdsii_from_layout(build_design("uart"))))
        layout.set_top("top")
        inject_violations(layout, InjectionPlan(spacing=3, width=3, enclosure=3), seed=5)
        deck = asap7.full_deck()
        csv = {}
        for jobs in (1, 2):
            options = EngineOptions(mode="multiproc", jobs=jobs, use_cache=False)
            with Engine(options=options) as engine:
                csv[jobs] = engine.check(layout, rules=deck).to_csv(expand_instances=True)
        assert csv[1] == csv[2] and csv[1].count("\n") > 6

    def test_tree_reads_the_mbr_table(self, built_polygons):
        layout = build_design("uart")
        expected = {}
        for cell in layout.cells.values():
            for layer in cell.local_layers():
                boxes = [p.mbr for p in cell.polygons(layer)]
                expected[cell.name, layer] = Rect(
                    min(b.xlo for b in boxes), min(b.ylo for b in boxes),
                    max(b.xhi for b in boxes), max(b.yhi for b in boxes),
                )  # fmt: skip
        fresh = read_layout_bytes(write_bytes(gdsii_from_layout(layout)))
        del built_polygons[:]
        tree = HierarchyTree(fresh, top="top")
        assert built_polygons == []
        for (name, layer), rect in expected.items():
            if not layout.cell(name).references:
                assert tree.layer_mbr(name, layer) == rect


# ---------------------------------------------------------------------------
# (c) Digest and diff on buffer bytes


def one_cell(rings_by_layer):
    layout = Layout("d")
    top = layout.new_cell("top")
    for layer, rings in rings_by_layer.items():
        for ring in rings:
            top.add_polygon(layer, Polygon._normalised(tuple(Point(*p) for p in ring)))
    return layout


def digest(layout, layer=1):
    return layer_geometry_digest(HierarchyTree(layout), layer)


def counter_diff(old_cell, new_cell, layer):
    """``_cell_local_dirty`` as it was: the symmetric difference of the two
    polygon multisets, every polygon built and hashed."""
    old_polys = Counter(old_cell.polygons(layer) if old_cell else ())
    new_polys = Counter(new_cell.polygons(layer) if new_cell else ())
    rects = []
    for polygon, count in old_polys.items():
        if new_polys.get(polygon, 0) != count:
            rects.append(polygon.mbr)
    for polygon, count in new_polys.items():
        if old_polys.get(polygon, 0) != count:
            rects.append(polygon.mbr)
    return rects


class TestDigestAndDiff:
    A = [(0, 0), (0, 5), (5, 5), (5, 0)]
    B = [(9, 9), (9, 12)]
    C = [(20, 0), (20, 5), (25, 5), (25, 0)]

    def test_digest_keeps_ring_boundaries_and_order(self):
        joined_left = digest(one_cell({1: [self.A + self.B, self.C]}))
        joined_right = digest(one_cell({1: [self.A, self.B + self.C]}))
        one_ring = digest(one_cell({1: [self.A + self.B + self.C]}))
        assert len({joined_left, joined_right, one_ring}) == 3
        assert digest(one_cell({1: [self.A, self.C]})) != digest(one_cell({1: [self.C, self.A]}))
        assert digest(one_cell({1: [self.A, self.C]})) == digest(one_cell({1: [self.A, self.C]}))

    def test_digest_bytes_are_the_ones_hashed_since_the_first_format(self):
        """Entries written by earlier versions stay addressable."""
        import hashlib
        import struct

        layout = build_design("uart")
        tree = HierarchyTree(layout)
        for layer in layout.layers():
            hasher = hashlib.sha256()
            hasher.update(f"layer:{layer};top:{tree.top.name};".encode("utf-8"))
            reachable, stack = set(), [tree.top.name]
            while stack:
                name = stack.pop()
                if name not in reachable and tree.has_layer(name, layer):
                    reachable.add(name)
                    stack.extend(ref.cell_name for ref in layout.cell(name).references)
            for name in sorted(reachable):
                hasher.update(f"cell:{name};".encode("utf-8"))
                for polygon in layout.cell(name).polygons(layer):
                    coords = [c for vertex in polygon.vertices for c in vertex]
                    hasher.update(b"poly:")
                    hasher.update(struct.pack("=%dq" % len(coords), *coords))
                for ref in layout.cell(name).references:
                    if tree.has_layer(ref.cell_name, layer):
                        hasher.update(b"ref:")
                        hasher.update(
                            repr((ref.cell_name, ref.transform, ref.repetition)).encode("utf-8")
                        )
            assert layer_geometry_digest(tree, layer) == hasher.hexdigest()

    def cells(self, old_rings, new_rings):
        old = one_cell({1: old_rings}).cell("top") if old_rings is not None else None
        new = one_cell({1: new_rings}).cell("top") if new_rings is not None else None
        return old, new

    @pytest.mark.parametrize(
        "old_rings, new_rings, dirty",
        [
            ([A, C], [A, C], []),
            ([A, C], [C, A], []),  # permuted but equal
            ([A, C], [A[2:] + A[:2], C], []),  # same polygon, another start vertex
            ([A, C], [A, C, L_SHAPE], [Rect(0, 0, 40, 30)]),  # one polygon added
            ([A, C, L_SHAPE], [A, L_SHAPE], [Rect(20, 0, 25, 5)]),  # one removed, mid-buffer
            ([A, A, C], [A, C], [Rect(0, 0, 5, 5)]),  # one of two copies removed
            ([A], [C], [Rect(0, 0, 5, 5), Rect(20, 0, 25, 5)]),
            (None, [A], [Rect(0, 0, 5, 5)]),
            ([A], None, [Rect(0, 0, 5, 5)]),
            (None, None, []),
        ],
    )
    def test_bytes_first_diff_is_the_counter_diff(self, old_rings, new_rings, dirty):
        old, new = self.cells(old_rings, new_rings)
        got = _cell_local_dirty(old, new, 1)
        assert RegionSet.of(got).rects == RegionSet.of(counter_diff(old, new, 1)).rects
        assert RegionSet.of(got).rects == RegionSet.of(dirty).rects

    def test_equal_buffers_build_nothing(self, built_polygons):
        old, new = self.cells([self.A, L_SHAPE, self.C], [self.A, L_SHAPE, self.C])
        del built_polygons[:]
        assert _cell_local_dirty(old, new, 1) == [] and built_polygons == []
        edited, _ = self.cells([self.A, L_SHAPE, self.C, self.B + self.C], None)
        del built_polygons[:]
        assert len(_cell_local_dirty(old, edited, 1)) == 1
        assert len(built_polygons) == 1  # the added ring alone became an object


# ---------------------------------------------------------------------------
# (d) Work bounds


class TestWorkBounds:
    def test_parsing_the_ledger_recipe_builds_no_polygon(self, ledger_stream, built_polygons):
        layout = read_layout_bytes(ledger_stream)
        assert built_polygons == []  # every ring of the recipe is a rectangle
        assert sum(cell.num_local_polygons for cell in layout.cells.values()) > 1000
        HierarchyTree(layout)
        assert built_polygons == []

    def test_a_non_rectangle_is_the_only_ring_that_goes_through_the_constructor(
        self, built_polygons
    ):
        read_layout_bytes(small_stream())
        assert [p.num_vertices for p in built_polygons] == [6]

    def test_one_wire_recheck_builds_only_what_meets_its_window(
        self, ledger_stream, monkeypatch
    ):
        old = read_layout_bytes(ledger_stream)
        old.set_top("top")
        tree = HierarchyTree(old)
        top_y = max(tree.top_mbr(layer).yhi for layer in old.layers())
        wire = Rect(100, top_y + 1000, 110, top_y + 1400)
        corners = [(wire.xlo, wire.ylo), (wire.xhi, wire.ylo), (wire.xhi, wire.yhi), (wire.xlo, wire.yhi)]
        endstr = len(ledger_stream) - 8
        new = read_layout_bytes(
            ledger_stream[:endstr] + boundary_bytes(asap7.M2, corners) + ledger_stream[endstr:]
        )
        new.set_top("top")
        deck = asap7.full_deck()
        with Engine(options=EngineOptions(use_cache=False)) as engine:
            baseline = engine.check(old, rules=deck, tree=tree)
        fresh_old = read_layout_bytes(ledger_stream)  # no view materialised yet
        fresh_old.set_top("top")

        viewed, singles = [], []
        polygons, polygon = RingBuffer.polygons, RingBuffer.polygon
        monkeypatch.setattr(
            RingBuffer, "polygons", lambda self: viewed.append(self) or polygons(self)
        )
        monkeypatch.setattr(
            RingBuffer,
            "polygon",
            lambda self, index: singles.append(Rect(*self.mbrs[4 * index : 4 * index + 4]))
            or polygon(self, index),
        )
        outcome = recheck(
            fresh_old, new, rules=deck, options=EngineOptions(use_cache=False), cached=baseline
        )
        monkeypatch.undo()

        assert sorted(Counter(outcome.disposition.values()).items()) == [
            ("cached", 8), ("windowed", 4)
        ]  # fmt: skip
        assert outcome.report.total_violations == baseline.total_violations + 1
        assert viewed == []  # no (cell, layer) was turned into objects wholesale
        reach = wire.inflated(max(rule.value or 0 for rule in deck))
        assert singles and all(mbr.overlaps(reach) for mbr in singles)
        assert len(singles) <= 2 * len(deck)

"""Columnar ingest: the fused BOUNDARY decode and its runs of rectangles, the
per-(cell, layer) ring buffers they fill, and the consumers that read them
instead of ``Polygon``s.

References are kept in ``tests/``: the record-by-record reader
(``reference_reader.py``, also wired under every ``read_layout_bytes`` of
``test_gdsii_malformed.py`` and ``test_property_gdsii.py``) and, below, the
``Counter``-of-polygons diff this PR put a bytes comparison in front of.
"""

import pickle
import re
from array import array
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import Engine, EngineOptions, recheck
from repro.core.diff import _cell_local_dirty
from repro.core.packstore import layer_geometry_digest
from repro.errors import GdsiiError, ReproError
from repro.gdsii import (
    GdsBoundary,
    GdsLibrary,
    GdsPath,
    GdsSref,
    GdsStructure,
    read_bytes,
    read_layout_bytes,
    reader,
    records,
    write_bytes,
)
from repro.gdsii.records import RecordType, make_record, pack_record, xy_record
from repro.gdsii.writer import _element_records
from repro.geometry import Point, Polygon, Rect
from repro.hierarchy.tree import HierarchyTree
from repro.layout import Cell, Layout, builder, gdsii_from_layout, layout_from_gdsii
from repro.layout import cell as cell_module
from repro.layout.builder import LayoutSink
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
    return element_bytes(GdsBoundary(layer, 0, list(points)))


def element_bytes(element):
    """``element`` as the writer encodes it."""
    return b"".join(map(pack_record, _element_records(element)))


def into_top(stream, *elements):
    """``stream`` with ``elements`` (bytes) added to its last structure."""
    return stream[:-8] + b"".join(elements) + stream[-8:]


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
        # The top structure is written last: its ENDSTR sits right before ENDLIB.
        edited = into_top(ledger_stream, boundary_bytes(asap7.M2, wire))
        base, new = checked_read_layout(ledger_stream), checked_read_layout(edited)
        assert new.cell("top").polygons(asap7.M2)[-1] == Polygon([Point(*p) for p in wire])
        assert new.cell("top").num_local_polygons == base.cell("top").num_local_polygons + 1

    def test_the_fast_path_is_what_reads_the_ledger_stream(self, ledger_stream, monkeypatch):
        slow, one_by_one = [], []
        walked, boundary = reader._boundary, LayoutSink.boundary
        monkeypatch.setattr(
            reader, "_boundary", lambda cur, emit: slow.append(cur.start) or walked(cur, emit)
        )
        monkeypatch.setattr(
            LayoutSink,
            "boundary",
            lambda self, layer, datatype, flat, properties: one_by_one.append(
                (self._cell.name, layer, tuple(flat), bool(properties))
            )
            or boundary(self, layer, datatype, flat, properties),
        )
        # Counter-clockwise from its lower-left corner: the column tests reject it.
        wire = [(100, 90_000), (110, 90_000), (110, 90_400), (100, 90_400)]
        layout = read_layout_bytes(into_top(ledger_stream, boundary_bytes(asap7.M2, wire)))
        total = sum(cell.num_local_polygons for cell in layout.cells.values())
        named = sum(
            1 for cell in layout.cells.values() for _, p in cell.all_polygons() if p.name
        )
        assert total > 1000 and named > 0
        assert len(slow) == named  # only elements with properties took the walk
        assert sum(1 for *_, named_ring in one_by_one if named_ring) == named
        wire_ring = tuple(c for point in wire for c in point)
        assert [call for call in one_by_one if not call[3]] == [
            ("top", asap7.M2, wire_ring, False)
        ]  # every other ring went into its buffer with its run

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
# (a2) Runs of rectangles, generated

INT32_EDGES = [-(2**31), -(2**31 - 1), 2**31 - 2, 2**31 - 1]
run_coords = st.one_of(st.integers(-1000, 1000), st.sampled_from(INT32_EDGES))
#: What :func:`run_elements` expects ``read_bytes`` to refuse the stream for.
OPEN = "open"


@st.composite
def run_elements(draw):
    """One element of a run: its bytes and the element ``read_bytes`` keeps
    (``None`` for TEXT, :data:`OPEN` for a ring that does not close)."""
    kind = draw(
        st.sampled_from(
            ["rect"] * 14 + ["degenerate", "open", "named", "hexagon", "path", "sref", "text"]
        )
    )
    layer = draw(st.sampled_from([0, 1, 2, 300, -3]))
    datatype = draw(st.sampled_from([0, 0, 0, 5, 300, -2]))
    if kind in ("rect", "degenerate", "open", "named"):
        xs = draw(st.lists(run_coords, min_size=2, max_size=2, unique=True))
        ys = draw(st.lists(run_coords, min_size=2, max_size=2, unique=True))
        if kind == "degenerate":
            axis = xs if draw(st.booleans()) else ys
            axis[1] = axis[0]
        (xlo, xhi), (ylo, yhi) = sorted(xs), sorted(ys)
        corners = [(xlo, ylo), (xlo, yhi), (xhi, yhi), (xhi, ylo)]
        start = draw(st.integers(0, 3))
        ring = corners[start:] + corners[:start]
        if draw(st.booleans()):
            ring.reverse()  # with the four start corners: all 8 vertex orders
        if kind == "open":
            raw = [
                make_record(RecordType.BOUNDARY),
                make_record(RecordType.LAYER, [layer]),
                make_record(RecordType.DATATYPE, [datatype]),
                xy_record(ring + [ring[1]]),
                make_record(RecordType.ENDEL),
            ]
            return b"".join(map(pack_record, raw)), OPEN
        properties = {1: "net", 7: "x"} if kind == "named" else {}
        element = GdsBoundary(layer, datatype, ring, properties)
    elif kind == "hexagon":
        dx, dy = draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))
        element = GdsBoundary(layer, datatype, [(x + dx, y + dy) for x, y in L_SHAPE])
    elif kind == "path":
        x, y = draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))
        element = GdsPath(layer, datatype, 4, [(x, y), (x + 50, y)])
    elif kind == "sref":
        element = GdsSref("LEAF", (draw(st.integers(-1000, 1000)), 0))
    else:
        raw = [
            make_record(RecordType.TEXT),
            make_record(RecordType.LAYER, [layer]),
            make_record(RecordType.TEXTTYPE, [0]),
            make_record(RecordType.XY, [5, 5]),
            make_record(RecordType.STRING, "label"),
            make_record(RecordType.ENDEL),
        ]
        return b"".join(map(pack_record, raw)), None
    return element_bytes(element), element


def run_stream(elements):
    """A library whose last structure holds ``elements``' bytes, and nothing else."""
    leaf = GdsStructure("LEAF", [GdsBoundary(1, 0, [(0, 0), (0, 10), (10, 10), (10, 0)])])
    frame = write_bytes(GdsLibrary(name="RUNS", structures=[leaf, GdsStructure("TOP")]))
    return into_top(frame, *(data for data, _ in elements))


def module_state_sizes():
    """The size of every module-level table of the read path, and of ``re``'s cache."""
    sizes = {"re._cache": len(getattr(re, "_cache", ()))}
    for module in (reader, records, builder, cell_module):
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set, bytearray, array)):
                sizes[module.__name__, name] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[module.__name__, name] = value.cache_info().currsize
    return sizes


class TestRunDecode:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.lists(run_elements(), max_size=300))
    def test_a_generated_run_reads_as_the_reference_reads_it(self, elements):
        data = run_stream(elements)
        try:
            checked_read_layout(data)  # the same layout, tables included, or the same error
        except ReproError:
            pass
        expected = [element for _, element in elements if element is not None]
        if OPEN in expected:
            with pytest.raises(GdsiiError, match="must repeat the first point"):
                read_bytes(data)
        else:
            assert read_bytes(data).structures[-1].elements == expected

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(run_elements(), min_size=1, max_size=4))
    def test_every_truncation_of_a_short_run(self, elements):
        data = run_stream(elements)
        run_start = len(data) - 8 - sum(len(raw) for raw, _ in elements)
        for cut in range(run_start, len(data)):
            with pytest.raises(ReproError):
                checked_read_layout(data[:cut])
            with pytest.raises(GdsiiError):
                read_bytes(data[:cut])

    @pytest.mark.parametrize("damage", ["mbr", "coords"])
    def test_the_reference_checks_the_mbr_table_and_offsets(self, damage, monkeypatch):
        """A decode that wrote a wrong table fails :func:`checked_read_layout`,
        though every polygon it views is right."""
        append = RingBuffer.append_rectangles

        def damaged(self, mbrs):
            append(self, mbrs)
            if damage == "mbr":
                self.mbrs[-1] += 1
            else:
                self.coords.append(0)  # past the last offset: no ring shows it

        squares = [[(x, 0), (x, 10), (x + 10, 10), (x + 10, 0)] for x in (0, 20)]
        structure = GdsStructure("TOP", [GdsBoundary(1, 0, ring) for ring in squares])
        data = write_bytes(GdsLibrary(name="RUN", structures=[structure]))
        expected = snapshot(read_layout_bytes(data))
        monkeypatch.setattr(RingBuffer, "append_rectangles", damaged)
        assert snapshot(read_layout_bytes(data)) == expected
        with pytest.raises(AssertionError):
            checked_read_layout(data)

    def test_reader_state_stays_a_fixed_size(self):
        """5 000 boundaries, each on its own layer, grow no module-level table."""
        square = [(0, 0), (0, 9), (9, 9), (9, 0)]
        boundaries = [
            GdsBoundary(layer, 0, L_SHAPE if layer % 7 == 0 else square) for layer in range(5000)
        ]
        data = write_bytes(GdsLibrary(name="LAYERS", structures=[GdsStructure("MANY", boundaries)]))
        read_layout_bytes(small_stream())
        before = module_state_sizes()
        layout = read_layout_bytes(data)
        assert len(layout.cell("MANY").local_layers()) == 5000
        assert module_state_sizes() == before

    def test_widening_keeps_every_int32(self):
        values = [-(2**31), -(2**31 - 1), -65536, -256, -1, 0, 1, 255, 65535, 2**31 - 1]
        assert builder._widened(array("i", values)) == array("q", values)


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
        assert built_polygons == []  # the added ring is compared by its canonical vertices


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
        polygons, polygon, points = RingBuffer.polygons, RingBuffer.polygon, RingBuffer.points
        monkeypatch.setattr(
            RingBuffer, "polygons", lambda self: viewed.append(self) or polygons(self)
        )
        monkeypatch.setattr(
            RingBuffer, "polygon", lambda self, index: viewed.append(self) or polygon(self, index)
        )
        monkeypatch.setattr(
            RingBuffer,
            "points",
            lambda self, index, row=None: singles.append(Rect(*self.mbrs[4 * index : 4 * index + 4]))
            or points(self, index, row),
        )
        outcome = recheck(
            fresh_old, new, rules=deck, options=EngineOptions(use_cache=False), cached=baseline
        )
        monkeypatch.undo()

        assert sorted(Counter(outcome.disposition.values()).items()) == [
            ("cached", 8), ("windowed", 4)
        ]  # fmt: skip
        assert outcome.report.total_violations == baseline.total_violations + 1
        assert viewed == []  # no ring was turned into an object
        # The rings read at all: the wire, by the diff and by each windowed rule.
        reach = wire.inflated(max(rule.value or 0 for rule in deck))
        assert singles and all(mbr.overlaps(reach) for mbr in singles)
        assert len(singles) <= 2 * len(deck)

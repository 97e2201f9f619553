"""Property-based GDSII round trips on randomly generated libraries."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

import itertools

import pytest

from repro.errors import GeometryError
from repro.gdsii import (
    GdsAref,
    GdsBoundary,
    GdsLibrary,
    GdsPath,
    GdsSref,
    GdsStrans,
    GdsStructure,
    read_bytes,
    write_bytes,
)
from repro.gdsii.model import magnification_scalar, strans_angle_to_rotation
from repro.gdsii.records import RecordType, make_record, pack_record
from repro.geometry import Point, Polygon, Transform
from repro.layout import Layout, layout_from_gdsii, path_outline
from repro.layout.builder import LayoutSink
from repro.layout.cell import CellReference, Repetition

# The fused reader, held on every call to the record-by-record reference walk.
from .reference_reader import checked_read_layout as read_layout_bytes

coords = st.integers(min_value=-100_000, max_value=100_000)
layer_numbers = st.integers(min_value=0, max_value=255)


@st.composite
def rect_xy(draw):
    x = draw(coords)
    y = draw(coords)
    w = draw(st.integers(min_value=1, max_value=5_000))
    h = draw(st.integers(min_value=1, max_value=5_000))
    return [(x, y), (x, y + h), (x + w, y + h), (x + w, y)]


@st.composite
def boundaries(draw):
    return GdsBoundary(
        layer=draw(layer_numbers),
        datatype=draw(st.integers(min_value=0, max_value=63)),
        xy=draw(rect_xy()),
        properties=draw(
            st.dictionaries(
                st.integers(min_value=1, max_value=8),
                st.text(alphabet="abcXYZ09", min_size=0, max_size=12),
                max_size=2,
            )
        ),
    )


@st.composite
def paths(draw):
    x = draw(coords)
    y = draw(coords)
    length = draw(st.integers(min_value=50, max_value=2_000))
    return GdsPath(
        layer=draw(layer_numbers),
        datatype=0,
        width=2 * draw(st.integers(min_value=1, max_value=20)),
        xy=[(x, y), (x + length, y)],
    )


@st.composite
def strans(draw):
    return GdsStrans(
        mirror_x=draw(st.booleans()),
        magnification=draw(st.sampled_from([1.0, 2.0, 4.0])),
        angle=draw(st.sampled_from([0.0, 90.0, 180.0, 270.0])),
    )


@st.composite
def libraries(draw):
    leaf_elements = draw(st.lists(st.one_of(boundaries(), paths()), min_size=1, max_size=4))
    leaf = GdsStructure("LEAF", list(leaf_elements))
    top_elements = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        top_elements.append(
            GdsSref("LEAF", (draw(coords), draw(coords)), draw(strans()))
        )
    if draw(st.booleans()):
        cols = draw(st.integers(min_value=1, max_value=4))
        rows = draw(st.integers(min_value=1, max_value=4))
        ox, oy = draw(coords), draw(coords)
        step_x = draw(st.integers(min_value=1, max_value=500))
        step_y = draw(st.integers(min_value=1, max_value=500))
        top_elements.append(
            GdsAref(
                "LEAF",
                columns=cols,
                rows=rows,
                xy=[(ox, oy), (ox + cols * step_x, oy), (ox, oy + rows * step_y)],
            )
        )
    top = GdsStructure("TOP", top_elements)
    return GdsLibrary(name="PROP", structures=[leaf, top])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(libraries())
def test_round_trip_preserves_everything(library):
    reloaded = read_bytes(write_bytes(library))
    assert reloaded.structure_names() == library.structure_names()
    for original, copied in zip(library.structures, reloaded.structures):
        assert len(original.elements) == len(copied.elements)
        for a, b in zip(original.elements, copied.elements):
            assert type(a) is type(b)
            if isinstance(a, GdsBoundary):
                assert a.xy == b.xy and a.layer == b.layer
                assert a.properties == b.properties
            elif isinstance(a, GdsPath):
                assert a.xy == b.xy and a.width == b.width
            elif isinstance(a, GdsSref):
                assert a.origin == b.origin
                assert a.strans.mirror_x == b.strans.mirror_x
                assert a.strans.angle == b.strans.angle
                assert a.strans.magnification == b.strans.magnification
            elif isinstance(a, GdsAref):
                assert (a.columns, a.rows) == (b.columns, b.rows)
                assert a.xy == b.xy


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(libraries())
def test_second_round_trip_is_byte_stable(library):
    once = write_bytes(library)
    assert write_bytes(read_bytes(once)) == once


# ---------------------------------------------------------------------------
# The one-pass reader against the reference conversion


names = st.one_of(
    st.just({}),
    st.builds(lambda text: {1: text}, st.text(alphabet="abcXYZ09_", min_size=1, max_size=12)),
)


@st.composite
def ring_xy(draw):
    """Rectangles from any corner in either direction, rectangles with extra
    collinear vertices, and L / T shapes."""
    x, y = draw(coords), draw(coords)
    w = draw(st.integers(min_value=2, max_value=5_000))
    h = draw(st.integers(min_value=2, max_value=5_000))
    shape = draw(st.sampled_from(["rect", "collinear", "L", "T"]))
    if shape == "L":
        w1 = draw(st.integers(min_value=1, max_value=w - 1))
        h1 = draw(st.integers(min_value=1, max_value=h - 1))
        ring = [(x, y), (x, y + h), (x + w1, y + h), (x + w1, y + h1), (x + w, y + h1), (x + w, y)]
    elif shape == "T":
        a = draw(st.integers(min_value=1, max_value=w))
        b = draw(st.integers(min_value=1, max_value=w))
        h1 = draw(st.integers(min_value=1, max_value=h - 1))
        ring = [
            (x, y), (x, y + h1), (x - a, y + h1), (x - a, y + h),
            (x + w + b, y + h), (x + w + b, y + h1), (x + w, y + h1), (x + w, y),
        ]  # fmt: skip
    else:
        ring = [(x, y), (x, y + h), (x + w, y + h), (x + w, y)]
        if shape == "collinear":
            extra = draw(st.integers(min_value=1, max_value=w - 1))
            ring = [(x, y), (x, y + h), (x + extra, y + h), (x + w, y + h), (x + w, y)]
    start = draw(st.integers(min_value=0, max_value=len(ring) - 1))
    ring = ring[start:] + ring[:start]
    if draw(st.booleans()):
        ring.reverse()
    return ring


@st.composite
def bent_paths(draw):
    x, y = draw(coords), draw(coords)
    width = 2 * draw(st.integers(min_value=1, max_value=20))
    run = draw(st.integers(min_value=width, max_value=2_000))
    rise = draw(st.integers(min_value=width, max_value=2_000)) * draw(st.sampled_from([1, -1]))
    return GdsPath(
        layer=draw(layer_numbers),
        datatype=0,
        width=width,
        xy=[(x, y), (x + run, y), (x + run, y + rise)],
        properties=draw(names),
    )


@st.composite
def placements(draw):
    return GdsStrans(
        mirror_x=draw(st.booleans()),
        magnification=draw(st.sampled_from([1.0, 2.0, 4.0, 0.5])),
        angle=draw(st.sampled_from([0.0, 90.0, 180.0, 270.0])),
    )


@st.composite
def rich_libraries(draw):
    shapes = st.builds(
        GdsBoundary,
        layer=layer_numbers,
        datatype=st.integers(min_value=0, max_value=63),
        xy=ring_xy(),
        properties=names,
    )
    leaf = GdsStructure(
        "LEAF", draw(st.lists(st.one_of(shapes, paths(), bent_paths()), min_size=1, max_size=5))
    )
    top_elements = draw(st.lists(shapes, max_size=2))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        top_elements.append(GdsSref("LEAF", (draw(coords), draw(coords)), draw(placements())))
    if draw(st.booleans()):
        cols = draw(st.integers(min_value=1, max_value=4))
        rows = draw(st.integers(min_value=1, max_value=4))
        ox, oy = draw(coords), draw(coords)
        step_x = draw(st.integers(min_value=1, max_value=500))
        step_y = draw(st.integers(min_value=1, max_value=500))
        top_elements.append(
            GdsAref(
                "LEAF",
                columns=cols,
                rows=rows,
                xy=[(ox, oy), (ox + cols * step_x, oy), (ox, oy + rows * step_y)],
                strans=draw(placements()),
            )
        )
    return GdsLibrary(name="RICH", structures=[leaf, GdsStructure("TOP", top_elements)])


def reference_layout(library):
    """The element -> cell conversion as the three-pass reader did it: every
    ring through the validating ``Polygon`` constructor."""
    layout = Layout(
        library.name, meters_per_unit=library.meters_per_unit, user_unit=library.user_unit
    )
    for structure in library.structures:
        cell = layout.new_cell(structure.name)
        for element in structure.elements:
            if isinstance(element, GdsBoundary):
                polygon = Polygon(
                    [Point(x, y) for x, y in element.xy], name=element.properties.get(1, "")
                )
                cell.add_polygon(element.layer, polygon)
            elif isinstance(element, GdsPath):
                polygon = path_outline(element.xy, element.width)
                polygon.name = element.properties.get(1, "")
                cell.add_polygon(element.layer, polygon)
            else:
                transform = Transform(
                    dx=element.origin[0],
                    dy=element.origin[1],
                    rotation=strans_angle_to_rotation(element.strans.angle),
                    mirror_x=element.strans.mirror_x,
                    magnification=magnification_scalar(element.strans.magnification),
                )
                repetition = None
                if isinstance(element, GdsAref):
                    repetition = Repetition(
                        element.columns, element.rows, element.column_step, element.row_step
                    )
                cell.add_reference(CellReference(element.sname, transform, repetition))
    return layout


def snapshot(layout):
    """Everything the engine can see of a layout, order included."""
    return (
        (layout.name, layout.user_unit, layout.meters_per_unit),
        [
            (
                name,
                [
                    (
                        layer,
                        [(polygon.vertices, polygon.name) for polygon in cell.polygons(layer)],
                    )
                    for layer in cell.local_layers()
                ],
                list(cell.references),
            )
            for name, cell in layout.cells.items()
        ],
    )


def with_text_elements(data):
    """``data`` with a TEXT element spliced in before every ENDSTR."""
    text = b"".join(
        pack_record(record)
        for record in (
            make_record(RecordType.TEXT),
            make_record(RecordType.LAYER, [7]),
            make_record(RecordType.TEXTTYPE, [0]),
            make_record(RecordType.XY, [5, 5]),
            make_record(RecordType.STRING, "label"),
            make_record(RecordType.ENDEL),
        )
    )
    endstr = pack_record(make_record(RecordType.ENDSTR))
    out, offset = [], 0
    while offset < len(data):
        length = int.from_bytes(data[offset : offset + 2], "big")
        record = data[offset : offset + length]
        out.append(text + record if record == endstr else record)
        offset += length
    return b"".join(out)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rich_libraries())
def test_one_pass_reader_builds_the_reference_layout(library):
    data = with_text_elements(write_bytes(library))
    expected = snapshot(reference_layout(library))
    assert snapshot(read_layout_bytes(data)) == expected
    assert snapshot(layout_from_gdsii(read_bytes(data))) == expected


def test_rectangle_shortcut_agrees_with_the_validator_on_every_small_ring():
    """All 6 561 four-point rings on a 3 x 3 grid: same vertices or same error."""
    grid = [(x, y) for x in range(3) for y in range(3)]

    def boundary_polygon(xy, name):
        """What the sink stores for one BOUNDARY ring, read back."""
        sink = LayoutSink()
        sink.begin_library("LIB", 1e-3, 1e-9, ())
        sink.begin_structure("C", ())
        sink.boundary(1, 0, [c for point in xy for c in point], {1: name})
        (polygon,) = sink.layout.cell("C").polygons(1)
        return polygon

    accepted = 0
    for xy in itertools.product(grid, repeat=4):
        try:
            expected = Polygon([Point(x, y) for x, y in xy], name="n")
        except GeometryError as error:
            with pytest.raises(GeometryError) as raised:
                boundary_polygon(xy, "n")
            assert str(raised.value) == str(error)
        else:
            polygon = boundary_polygon(xy, "n")
            assert polygon.vertices == expected.vertices
            assert (polygon.name, polygon.mbr, polygon.area) == ("n", expected.mbr, expected.area)
            accepted += 1
    assert accepted == 9 * 8  # 9 rectangles on the grid x 4 start corners x 2 directions

"""A layout version read against its predecessor is a fresh read.

``read_layout_bytes(new, previous=old)`` splices each structure from the
cell of ``old`` it shares a head and a tail of bytes with (STRNAME through
ENDSTR), decoding only the elements in between; a tree built with
``previous=`` shares the MBRs of unchanged subtrees; layer digests are
carried over where provably equal; the diff skips cells whose tokens match.
None of that may show. Over generated version chains of the
``repro.workloads`` designs — layout edits, structure-level stream edits and
element-level ones (elements inserted, deleted or replaced at the start, in
the middle or at the end of a structure, inside and across 512-rectangle
runs, one structure or two) — a spliced read equals a fresh one cell for
cell (buffers, names, references, tokens, source spans) or fails with the
same exception and message, and its tree MBRs, layer digests and diff equal
those of the token-less reference ``layout_from_gdsii(read_bytes(...))``;
and a recheck of each version against the chain's report of the one
before, edited in the top, a row or a leaf definition, splices to the cold
check's CSV. A predecessor edited through any public path lends nothing it
changed, and the malformed corpus reads the same with a predecessor as
without.
"""

import inspect
import random
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.diff import diff_layouts
from repro.core.incremental import recheck
from repro.core.packstore import layer_digests, layer_geometry_digest
from repro.errors import ReproError
from repro.gdsii import read_bytes, read_layout_bytes, write_bytes
from repro.gdsii.model import GdsBoundary, GdsLibrary, GdsStructure
from repro.gdsii.reader import REFERENCE_KEY
from repro.gdsii.records import RecordType, make_record, pack_record, xy_record
from repro.geometry import Polygon, Transform
from repro.hierarchy.tree import HierarchyTree
from repro.layout import gdsii_from_layout, layout_from_gdsii
from repro.layout.builder import LayoutSink
from repro.layout.cell import CellReference
from repro.workloads import asap7, build_design

from . import test_gdsii_malformed as corpus
from .reference_reader import checked_read_layout, snapshot
from .test_recheck import cold_report

TOP = "top"
DESIGNS = {"uart": ("uart",), "jpeg": ("jpeg", 1)}


@pytest.fixture(scope="module")
def streams():
    return {
        name: write_bytes(gdsii_from_layout(build_design(*args)))
        for name, args in DESIGNS.items()
    }


def spy_decoded(monkeypatch):
    """One structure name per element the layout reader decodes (rather
    than copies) from here on: ``LayoutSink.boundary``, ``rectangles`` (one
    per rectangle of the run) and ``element``, spied on."""
    names = []
    in_run = []  # a run hands its odd rings to ``boundary``: not elements of their own
    boundary, rectangles, element = LayoutSink.boundary, LayoutSink.rectangles, LayoutSink.element

    def spy_boundary(sink, *args):
        if not in_run:
            names.append(sink._cell.name)
        return boundary(sink, *args)

    def spy_rectangles(sink, layer, words):
        names.extend([sink._cell.name] * (len(words) // 16))
        in_run.append(layer)
        try:
            return rectangles(sink, layer, words)
        finally:
            in_run.pop()

    def spy_element(sink, gds_element):
        names.append(sink._cell.name)
        return element(sink, gds_element)

    monkeypatch.setattr(LayoutSink, "boundary", spy_boundary)
    monkeypatch.setattr(LayoutSink, "rectangles", spy_rectangles)
    monkeypatch.setattr(LayoutSink, "element", spy_element)
    return names


@pytest.fixture()
def decoded(monkeypatch):
    return spy_decoded(monkeypatch)


# -- streams ----------------------------------------------------------------


def split(data):
    """``(head, structures, tail)``: each structure's bytes, BGNSTR through
    ENDSTR, and what comes before the first and after the last."""
    spans, offset, start = [], 0, 0
    while offset + 4 <= len(data):
        length, rtype = struct.unpack_from(">HB", data, offset)
        if length < 4:
            break
        if rtype == RecordType.BGNSTR:
            start = offset
        elif rtype == RecordType.ENDSTR:
            spans.append((start, offset + length))
        offset += length
    return data[: spans[0][0]], [data[a:b] for a, b in spans], data[spans[-1][1] :]


def name_of(structure):
    length = struct.unpack_from(">H", structure, 28)[0]  # STRNAME follows BGNSTR
    return structure[32 : 28 + length].rstrip(b"\x00").decode("ascii")


def timestamp(year):
    return struct.pack(">12h", year, 1, 2, 3, 4, 5, year, 6, 7, 8, 9, 10)


def edit_stream(data, edit, rng):
    """A byte-level edit: the structures' order, names, count or timestamps,
    or the stream cut short."""
    head, structures, tail = split(data)
    if edit == "restamp":
        # HEADER is 6 bytes; BGNLIB's and every BGNSTR's payload is 12 int16.
        year = rng.randrange(1990, 2030)
        head = head[:10] + timestamp(year) + head[34:]
        structures = [s[:4] + timestamp(year) + s[28:] for s in structures]
    elif edit == "reorder":
        rng.shuffle(structures)
    elif edit == "duplicate":
        structures.insert(rng.randrange(len(structures) + 1), rng.choice(structures))
    elif edit == "rename":
        index = rng.randrange(len(structures))
        chunk = structures[index]
        length = struct.unpack_from(">H", chunk, 28)[0]
        name = pack_record(make_record(RecordType.STRNAME, f"R{rng.randrange(99)}"))
        structures[index] = chunk[:28] + name + chunk[28 + length :]
    elif edit in ELEMENT_EDITS:
        leaves = [name_of(s) for s in structures if not references_in(s)]
        count = 2 if edit == "two_structures" else 1
        # The largest structure (the top) half the time: it holds the long runs.
        largest = max(range(len(structures)), key=lambda i: len(structures[i]))
        others = [i for i in range(len(structures)) if i != largest]
        picked = [largest] if rng.random() < 0.5 else []
        picked += rng.sample(others, count - len(picked))
        for index in picked:
            kind = rng.choice(ELEMENT_EDITS[:4]) if edit == "two_structures" else edit
            structures[index] = edit_elements(structures[index], kind, leaves, rng)[0]
    out = head + b"".join(structures) + tail
    if edit == "truncate":
        out = out[: rng.randrange(len(out))]
    return out


# -- element-level stream edits ---------------------------------------------------

ELEMENT_EDITS = (
    "insert_elements",
    "delete_elements",
    "replace_elements",
    "nudge_element",
    "two_structures",
)
ELEMENT_STARTS = {
    RecordType.BOUNDARY, RecordType.PATH, RecordType.SREF, RecordType.AREF, RecordType.TEXT
}  # fmt: skip


def elements_of(structure):
    """``(head, elements, end)``: a structure's BGNSTR and STRNAME records,
    the bytes of each of its elements, and its ENDSTR record."""
    offset, bounds, body, begin = 0, [], 0, 0
    while offset < len(structure):
        length, rtype = struct.unpack_from(">HB", structure, offset)
        if rtype == RecordType.STRNAME:
            body = offset + length
        elif rtype in ELEMENT_STARTS:
            begin = offset
        elif rtype == RecordType.ENDEL:
            bounds.append((begin, offset + length))
        offset += length
    return structure[:body], [structure[a:b] for a, b in bounds], structure[-4:]


def references_in(structure):
    return any(e[2] in (RecordType.SREF, RecordType.AREF) for e in elements_of(structure)[1])


def is_rectangle_element(element):
    """A canonical five-point rectangle BOUNDARY: what the reader takes in runs."""
    return len(element) == 64 and element[2] == RecordType.BOUNDARY


def run_breaks(elements):
    """Where the fused decode starts or ends a run: the first and last of
    each stretch of canonical rectangles on one layer, and every 512th."""
    breaks, stretch = [], 0
    for i, element in enumerate(elements + [b""]):
        same = i > 0 and is_rectangle_element(element) and is_rectangle_element(elements[i - 1])
        if not (same and element[8:10] == elements[i - 1][8:10]):
            if i > stretch:
                breaks += list(range(stretch, i, 512)) + [i]
            stretch = i
    return breaks


def position(elements, rng):
    """An element index: the start, the end, anywhere, or at a run's edge."""
    where = rng.choice(("start", "end", "anywhere", "run", "run"))
    if where == "start":
        return 0
    if where == "end":
        return len(elements)
    breaks = run_breaks(elements)
    if where == "run" and breaks:
        return min(len(elements), max(0, rng.choice(breaks) + rng.randint(-1, 1)))
    return rng.randrange(len(elements) + 1)


def records_bytes(*records):
    return b"".join(pack_record(record) for record in records) + pack_record(
        make_record(RecordType.ENDEL)
    )


def new_element(rng, leaves):
    """One element's bytes: a rectangle (either orientation, with or
    without a name property), an L, a PATH, an SREF, an AREF, a TEXT, or a
    BOUNDARY the reader refuses."""
    kind = rng.choice(
        ("rect", "rect", "ccw", "named", "ell", "path", "sref", "aref", "text", "open")
    )
    layer = rng.choice((asap7.M1, asap7.M2, 7))
    x, y, w, h = rng.randrange(4000), rng.randrange(4000), rng.randint(4, 60), rng.randint(4, 60)
    R = RecordType
    shape = [make_record(R.LAYER, [layer]), make_record(R.DATATYPE, [0])]
    if kind in ("rect", "ccw", "named", "open"):
        ring = [(x, y), (x, y + h), (x + w, y + h), (x + w, y)]
        if kind == "ccw":
            ring.reverse()
        closing = [] if kind == "open" else ring[:1]
        named = [make_record(R.PROPATTR, [1]), make_record(R.PROPVALUE, f"n{x}")]
        properties = named if kind == "named" else []
        return records_bytes(
            make_record(R.BOUNDARY), *shape, xy_record(ring + closing), *properties
        )
    if kind == "ell":
        ring = [
            (x, y), (x, y + 2 * h), (x + w, y + 2 * h), (x + w, y + h), (x + 2 * w, y + h),
            (x + 2 * w, y),
        ]  # fmt: skip
        return records_bytes(make_record(R.BOUNDARY), *shape, xy_record(ring + ring[:1]))
    if kind == "path":
        width = make_record(R.WIDTH, [2 * rng.randint(2, 20)])
        points = [(x, y), (x + 100, y), (x + 100, y + 100)]
        return records_bytes(make_record(R.PATH), *shape, width, xy_record(points))
    if kind == "sref":
        target = make_record(R.SNAME, rng.choice(leaves))
        return records_bytes(make_record(R.SREF), target, xy_record([(x, y)]))
    if kind == "aref":
        corners = [(x, y), (x + 2 * 500, y), (x, y + 3 * 700)]
        return records_bytes(
            make_record(R.AREF), make_record(R.SNAME, rng.choice(leaves)),
            make_record(R.COLROW, [2, 3]), xy_record(corners),
        )  # fmt: skip
    return records_bytes(
        make_record(R.TEXT), make_record(R.LAYER, [layer]), make_record(R.TEXTTYPE, [0]),
        xy_record([(x, y)]), make_record(R.STRING, "label"),
    )  # fmt: skip


def edit_elements(structure, edit, leaves, rng):
    """One structure with elements inserted, deleted, replaced, or (the
    length kept) one rectangle moved; and how many elements went in."""
    head, elements, end = elements_of(structure)
    at = position(elements, rng)
    fresh = [new_element(rng, leaves) for _ in range(rng.choice((1, 1, 2, 3)))]
    rectangles = [i for i, e in enumerate(elements) if is_rectangle_element(e)]
    if edit == "insert_elements":
        elements[at:at] = fresh
    elif edit == "delete_elements":
        del elements[at : at + len(fresh)]
        fresh = []
    elif edit == "replace_elements":
        fresh = fresh[: rng.randint(1, len(fresh))]
        elements[at : at + rng.randint(1, 3)] = fresh
    elif rectangles:
        at = min(rectangles, key=lambda i: abs(i - at))
        words = list(struct.unpack_from(">10i", elements[at], 20))
        delta = rng.choice((-3, 2, 8))
        words[0::2] = [x + delta for x in words[0::2]]
        elements[at] = elements[at][:20] + struct.pack(">10i", *words) + elements[at][60:]
        fresh = [elements[at]]
    else:
        elements[at:at] = fresh
    return head + b"".join(elements) + end, len(fresh)


def pick(layout, where, rng):
    """The top, a row, or a childless cell with geometry."""
    names = sorted(layout.cells)
    if where == "row":
        names = [n for n in names if n.startswith("row_")]
    elif where == "leaf":
        names = [
            n for n in names if not layout.cells[n].references and layout.cells[n].local_layers()
        ]
    else:
        names = [TOP]
    return layout.cells[rng.choice(names)]


def edit_layout(data, edit, where, rng):
    """A geometry edit, written back out: a polygon or a reference added,
    removed or (a reference) moved, in the top, a row or a leaf."""
    layout = layout_from_gdsii(read_bytes(data))
    if TOP not in layout.cells:
        return data
    cell = pick(layout, where, rng)
    if edit == "add_polygon":
        x, y = rng.randrange(4000), rng.randrange(4000)
        polygon = Polygon.from_rect_coords(x, y, x + rng.randint(4, 60), y + rng.randint(4, 60))
        cell.add_polygon(rng.choice(layout.layers()), polygon)
    elif edit == "remove_polygon" and cell.local_layers():
        layer = rng.choice(cell.local_layers())
        cell.remove_polygon(layer, rng.randrange(len(cell.rings(layer))))
    elif edit == "add_reference":
        # A childless target keeps the hierarchy acyclic.
        targets = [
            n for n in sorted(layout.cells) if not layout.cells[n].references and n != cell.name
        ]
        placement = Transform(dx=rng.randrange(4000), dy=rng.randrange(4000))
        cell.add_reference(CellReference(rng.choice(targets), placement))
    elif edit in ("remove_reference", "move_reference") and cell.references:
        index = rng.randrange(len(cell.references))
        if edit == "remove_reference":
            del cell.references[index]
        else:
            ref = cell.references[index]
            t = ref.transform
            moved = Transform(t.dx + rng.randint(1, 90), t.dy, t.rotation, t.mirror_x, t.magnification)
            cell.references[index] = CellReference(ref.cell_name, moved, ref.repetition)
    return write_bytes(gdsii_from_layout(layout))


# -- reading and what is built on it -------------------------------------------


def cells_of(layout):
    """Each cell as data: ring buffers by value, names, references, token,
    where its structure is in the stream."""
    return [
        (
            name,
            cell.source_token,
            (cell.source.start, cell.source.stop) if cell.source else None,
            [
                (layer, rings.coords, rings.offsets, rings.mbrs, rings.names)
                for layer in cell.local_layers()
                for rings in [cell.rings(layer)]
            ],
            cell.references,
        )
        for name, cell in layout.cells.items()
    ]


def outcome(read):
    """``(layout, None)``, or ``(None, (exception class, message))``."""
    try:
        return read(), None
    except ReproError as error:
        return None, (type(error), str(error))


def read_against(data, previous):
    """``read_layout_bytes(data, previous=previous)``, held to a fresh read
    (itself held to the record-by-record reference reader) and to the
    token-less model read; None where both fail alike."""
    fresh, expected = outcome(lambda: checked_read_layout(data))
    carried, error = outcome(lambda: read_layout_bytes(data, previous=previous))
    assert error == expected
    if carried is not None:
        assert cells_of(carried) == cells_of(fresh)
        for cell in carried.cells.values():
            assert_indexed(cell, data)
        reference = layout_from_gdsii(read_bytes(data))
        assert snapshot(carried) == snapshot(reference)
        assert {cell.source_token for cell in reference.cells.values()} == {None}
    return carried


def element_boundaries(data, start, stop):
    """Where the elements of the structure ``data[start:stop]`` (STRNAME
    through ENDSTR) begin and end, counted from ``start``."""
    offset, bounds = start, []
    while offset < stop:
        length, rtype = struct.unpack_from(">HB", data, offset)
        offset += length
        if rtype in (RecordType.STRNAME, RecordType.ENDEL):
            bounds.append(offset - start)
    return bounds


def assert_indexed(cell, data):
    """The cell's source is ``data`` itself (no byte of a predecessor kept),
    its element index names every element boundary of the structure and no
    other, and adds up to what the cell holds."""
    source = cell.source
    assert source.data is data
    marks = source.index[0::3]
    assert list(marks) == sorted(set(marks)) and marks[-1] <= source.stop - source.start - 4
    named = [
        source.offset(i, k)
        for i in range(len(marks))
        for k in range(max(1, source.index[3 * i + 5] if 3 * i + 5 < len(source.index) else 1))
    ]
    assert named == element_boundaries(data, source.start, source.stop)
    totals = source.tally(len(marks) - 1, 0)
    assert {key: count for key, count in totals.items() if count} == {
        **{layer: len(cell.rings(layer)) for layer in cell.local_layers()},
        **({REFERENCE_KEY: len(cell.references)} if cell.references else {}),
    }


def assert_derived_alike(old, new, old_reference, new_reference):
    """The tree MBRs, layer digests and diff of ``new`` built against ``old``
    equal those of the token-less references, built from nothing."""
    for layout in (old, new, old_reference, new_reference):
        layout.set_top(TOP)
    old_tree = HierarchyTree(old)
    new_tree = HierarchyTree(new, previous=old_tree)
    reference_tree = HierarchyTree(new_reference)
    assert new_tree._layer_mbrs == reference_tree._layer_mbrs
    old_digests = {L: layer_geometry_digest(old_tree, L) for L in old.layers()}
    assert layer_digests(new_tree, new.layers(), (old_tree, old_digests)) == {
        L: layer_geometry_digest(reference_tree, L) for L in new_reference.layers()
    }
    diff, expected = diff_layouts(old, new), diff_layouts(old_reference, new_reference)
    assert (diff.full, diff.old_digests, diff.new_digests) == (
        expected.full,
        expected.old_digests,
        expected.new_digests,
    )
    assert {L: r.rects for L, r in diff.dirty.items()} == {
        L: r.rects for L, r in expected.dirty.items()
    }


# -- generated version chains ---------------------------------------------------

LAYOUT_EDITS = ("add_polygon", "remove_polygon", "add_reference", "remove_reference", "move_reference")
STREAM_EDITS = ("rename", "reorder", "duplicate", "restamp", "truncate") + ELEMENT_EDITS


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    steps=st.lists(
        st.tuples(
            st.sampled_from(LAYOUT_EDITS + STREAM_EDITS + ("unrelated",)),
            st.sampled_from(("top", "row", "leaf")),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_a_version_chain_reads_as_fresh(streams, design, steps):
    data = streams[design]
    layout = read_layout_bytes(data)
    report = None  # the chain's report of ``layout``, spliced where it could be
    for edit, where, seed in steps:
        rng = random.Random(seed)
        previous, previous_data, baseline = layout, data, report
        if edit == "unrelated":
            previous_data = streams["jpeg" if design == "uart" else "uart"]
            previous = read_layout_bytes(previous_data)
            new_data, baseline = data, None
        elif edit in STREAM_EDITS:
            new_data = edit_stream(data, edit, rng)
        else:
            new_data = edit_layout(data, edit, where, rng)
        new = read_against(new_data, previous)
        if new is None:
            continue  # the chain goes on from the last version that read
        if TOP in new.cells and TOP in previous.cells:
            assert_derived_alike(
                previous,
                new,
                layout_from_gdsii(read_bytes(previous_data)),
                layout_from_gdsii(read_bytes(new_data)),
            )
            report = spliced_is_cold(previous, new, baseline)
        else:
            report = None
        layout, data = new, new_data


def spliced_is_cold(old, new, baseline):
    """Recheck ``new`` against ``old``'s report (cold if none is given):
    the spliced CSV is the cold check's. Returns the spliced report."""
    deck = asap7.full_deck()
    if baseline is None:
        baseline = cold_report(old, deck)
    outcome = recheck(old, new, rules=deck, cached=baseline)
    assert outcome.report.to_csv() == cold_report(new, deck).to_csv()
    return outcome.report


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    steps=st.lists(
        st.tuples(st.sampled_from(ELEMENT_EDITS[:4]), st.booleans(), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=3,
    ),
)
def test_an_element_edit_decodes_only_the_elements_it_put_in(streams, design, steps):
    """Each version, one structure edited, read against the last one that
    read: a fresh read, with at most the inserted elements decoded."""
    data = streams[design]
    layout = read_layout_bytes(data)
    for edit, in_top, seed in steps:
        rng = random.Random(seed)
        head, structures, tail = split(data)
        index = (
            max(range(len(structures)), key=lambda i: len(structures[i]))
            if in_top
            else rng.randrange(len(structures))
        )
        leaves = [name_of(s) for s in structures if not references_in(s)]
        structures[index], placed = edit_elements(structures[index], edit, leaves, rng)
        new_data = head + b"".join(structures) + tail
        new = read_against(new_data, layout)
        if new is None:
            continue
        with pytest.MonkeyPatch.context() as patch:
            decoded = spy_decoded(patch)
            read_layout_bytes(new_data, previous=layout)
        assert set(decoded) <= {name_of(structures[index])} and len(decoded) <= placed
        layout, data = new, new_data


def text_then_run(label, nudged=None):
    """A stream whose one structure holds an L, a TEXT carrying ``label``
    and then a run of four rectangles on one layer, rectangle ``nudged``
    moved up by 2."""
    R = RecordType
    rectangles = [
        GdsBoundary(asap7.M1, 0, [(x, 0), (x, 40), (x + 20, 40), (x + 20, 0)])
        for x in range(0, 200, 50)
    ]
    if nudged is not None:
        rectangles[nudged].xy = [(x, y + 2) for x, y in rectangles[nudged].xy]
    ell = GdsBoundary(asap7.M2, 0, [(0, 0), (0, 80), (40, 80), (40, 40), (80, 40), (80, 0)])
    data = write_bytes(GdsLibrary(name="LIB", structures=[GdsStructure(TOP, [ell] + rectangles)]))
    head, (structure,), tail = split(data)
    start, elements, end = elements_of(structure)
    text = records_bytes(
        make_record(R.TEXT), make_record(R.LAYER, [asap7.M1]), make_record(R.TEXTTYPE, [0]),
        xy_record([(5, 5)]), make_record(R.STRING, label),
    )  # fmt: skip
    return head + start + elements[0] + text + b"".join(elements[1:]) + end + tail


@pytest.mark.parametrize("label", ["abcd", "x" * 28], ids=["40-byte-text", "64-byte-text"])
@pytest.mark.parametrize("nudged", [0, 1, 3])
def test_a_text_before_a_run_leaves_the_run_s_boundaries_exact(label, nudged, monkeypatch):
    """A run after a TEXT starts where the TEXT ends, not where the element
    before it does: the nudged rectangle alone is decoded, and the read is
    a fresh one."""
    base = text_then_run(label)
    edited = text_then_run(label, nudged)
    assert len(edited) == len(base) and edited != base
    previous = read_layout_bytes(base)
    decoded = spy_decoded(monkeypatch)
    assert read_against(edited, previous) is not None
    decoded.clear()
    read_layout_bytes(edited, previous=previous)
    assert decoded == [TOP]


def test_a_restamped_resave_decodes_nothing(streams, decoded):
    data = streams["jpeg"]
    previous = read_layout_bytes(data)
    restamped = edit_stream(data, "restamp", random.Random(1))
    assert restamped != data
    decoded.clear()
    layout = read_layout_bytes(restamped, previous=previous)
    assert decoded == []
    assert cells_of(layout) == cells_of(previous)


def test_errors_come_as_a_fresh_read_raises_them(streams):
    """A duplicate of a carried structure fails at its STRNAME; a carried
    parent of a dropped child fails at ENDLIB, naming the reference."""
    data = streams["uart"]
    previous = read_layout_bytes(data)
    head, structures, tail = split(data)
    child = previous.cells[TOP].references[0].cell_name
    duplicate = head + b"".join(structures + structures[:1]) + tail
    dropped = head + b"".join(s for s in structures if name_of(s) != child) + tail
    for broken in (duplicate, dropped):
        assert read_against(broken, previous) is None


# -- a predecessor edited after it was read --------------------------------------

POLYGON_EDITS = {
    "add_polygon": lambda cell, layer: cell.add_polygon(layer, Polygon.from_rect_coords(0, 0, 12, 34)),
    "remove_polygon": lambda cell, layer: cell.remove_polygon(layer, 0),
    "ring_buffer": lambda cell, layer: cell.ring_buffer(layer),
    "rings_append": lambda cell, layer: cell.rings(layer).append(
        Polygon.from_rect_coords(0, 0, 12, 34)
    ),
    "rings_append_ring": lambda cell, layer: cell.rings(layer).append_ring(
        (0, 0, 0, 34, 12, 34, 12, 0), (0, 0, 12, 34)
    ),
    "rings_remove": lambda cell, layer: cell.rings(layer).remove(0),
}
REFERENCE_EDITS = {
    "add_reference": lambda cell: cell.add_reference(CellReference("FILLERx1", Transform(dx=7))),
    "references_slice": lambda cell: cell.references.__setitem__(
        slice(None), cell.references[1:]
    ),
}
MUTATIONS = [(name, where) for name in sorted(POLYGON_EDITS) for where in ("top", "leaf")] + [
    (name, where) for name in sorted(REFERENCE_EDITS) for where in ("top", "row")
]


def mutate(layout, name, where):
    cell = pick(layout, where, random.Random(5))
    if name in POLYGON_EDITS:
        POLYGON_EDITS[name](cell, cell.local_layers()[0])
    else:
        REFERENCE_EDITS[name](cell)
    return cell.name


@pytest.mark.parametrize("name, where", MUTATIONS)
def test_a_mutated_predecessor_lends_nothing_it_changed(streams, decoded, name, where):
    data = streams["uart"]
    previous = read_layout_bytes(data)
    reference = layout_from_gdsii(read_bytes(data))
    mutated = mutate(previous, name, where)
    assert mutate(reference, name, where) == mutated
    assert previous.cells[mutated].source_token is None
    assert previous.cells[mutated].source is None
    assert all(c.source_token for n, c in previous.cells.items() if n != mutated)
    decoded.clear()
    read_layout_bytes(data)
    whole = [n for n in decoded if n == mutated]
    decoded.clear()
    read_layout_bytes(data, previous=previous)
    assert decoded == whole  # every element of the mutated structure, nothing else
    new = read_against(data, previous)
    assert_derived_alike(previous, new, reference, layout_from_gdsii(read_bytes(data)))


# -- the malformed corpus, with a predecessor --------------------------------------

CORPUS = [
    pytest.param(cls, attr, id=f"{cls.__name__}.{attr}")
    for cls in (
        corpus.TestLibraryLevel,
        corpus.TestStructureLevel,
        corpus.TestRecordCorruption,
        corpus.TestDegenerateRings,
        corpus.TestFuzz,
    )
    for attr in sorted(vars(cls))
    if attr.startswith("test_")
]
ARGUMENTS = {
    "name": sorted(corpus.TestDegenerateRings.RINGS),
    "empty": [RecordType.LAYER, RecordType.DATATYPE],
}


@pytest.fixture(scope="module")
def fuzz_stream():
    """What the corpus's fuzz cases damage (jpeg@2), read as the predecessor."""
    return write_bytes(gdsii_from_layout(build_design("jpeg", 2)))


@pytest.mark.parametrize("cls, attr", CORPUS)
def test_the_malformed_corpus_reads_alike_with_a_predecessor(cls, attr, fuzz_stream, monkeypatch):
    previous = read_layout_bytes(fuzz_stream)
    checked = corpus.read_layout_bytes  # a fresh read, held to the record walk

    def read_with_previous(data):
        fresh, expected = outcome(lambda: checked(data))
        carried, error = outcome(lambda: read_layout_bytes(data, previous=previous))
        assert error == expected
        if fresh is None:
            raise expected[0](expected[1])
        assert cells_of(carried) == cells_of(fresh)
        return carried

    monkeypatch.setattr(corpus, "read_layout_bytes", read_with_previous)
    monkeypatch.setattr(corpus, "READERS", (corpus.read_bytes, read_with_previous))
    test = getattr(cls(), attr)
    parameters = list(inspect.signature(test).parameters)
    if not parameters:
        test()
    elif parameters == ["stream"]:
        test(fuzz_stream)
    else:
        for value in ARGUMENTS[parameters[0]]:
            test(value)

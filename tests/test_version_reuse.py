"""A layout version read against its predecessor is a fresh read.

``read_layout_bytes(new, previous=old)`` copies each structure whose bytes,
STRNAME through ENDSTR, are those a cell of ``old`` was read from; a tree
built with ``previous=`` shares the MBRs of unchanged subtrees; layer digests
are carried over where provably equal; the diff skips cells whose tokens
match. None of that may show. Over generated version chains of the
``repro.workloads`` designs a carried read equals a fresh one cell for cell
(buffers, names, references, tokens) or fails with the same exception and
message, and its tree MBRs, layer digests and diff equal those of the
token-less reference ``layout_from_gdsii(read_bytes(...))``; and a recheck
of each version against the chain's report of the one before, edited in
the top, a row or a leaf definition, splices to the cold check's CSV. A predecessor
edited through any public path lends nothing it changed, and the malformed
corpus reads the same with a predecessor as without.
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
from repro.gdsii import read_bytes, read_layout_bytes, reader, write_bytes
from repro.gdsii.records import RecordType, make_record, pack_record
from repro.geometry import Polygon, Transform
from repro.hierarchy.tree import HierarchyTree
from repro.layout import gdsii_from_layout, layout_from_gdsii
from repro.layout.cell import CellReference
from repro.workloads import asap7, build_design

from . import test_gdsii_malformed as corpus
from .reference_reader import snapshot
from .test_recheck import cold_report

TOP = "top"
DESIGNS = {"uart": ("uart",), "jpeg": ("jpeg", 1)}


@pytest.fixture(scope="module")
def streams():
    return {
        name: write_bytes(gdsii_from_layout(build_design(*args)))
        for name, args in DESIGNS.items()
    }


@pytest.fixture()
def walked(monkeypatch):
    """The names of the structures decoded (not carried over) from here on."""
    names = []
    walk = reader._walk_structure

    def spy(cur, name, *args):
        names.append(name)
        return walk(cur, name, *args)

    monkeypatch.setattr(reader, "_walk_structure", spy)
    return names


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
    out = head + b"".join(structures) + tail
    if edit == "truncate":
        out = out[: rng.randrange(len(out))]
    return out


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
    """Each cell as data: ring buffers by value, names, references, token."""
    return [
        (
            name,
            cell.source_token,
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
    and to the token-less reference; None where both fail alike."""
    fresh, expected = outcome(lambda: read_layout_bytes(data))
    carried, error = outcome(lambda: read_layout_bytes(data, previous=previous))
    assert error == expected
    if carried is not None:
        assert cells_of(carried) == cells_of(fresh)
        reference = layout_from_gdsii(read_bytes(data))
        assert snapshot(carried) == snapshot(reference)
        assert {cell.source_token for cell in reference.cells.values()} == {None}
    return carried


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
STREAM_EDITS = ("rename", "reorder", "duplicate", "restamp", "truncate")


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


def test_a_restamped_resave_decodes_nothing(streams, walked):
    data = streams["jpeg"]
    previous = read_layout_bytes(data)
    restamped = edit_stream(data, "restamp", random.Random(1))
    assert restamped != data
    walked.clear()
    layout = read_layout_bytes(restamped, previous=previous)
    assert walked == []
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
def test_a_mutated_predecessor_lends_nothing_it_changed(streams, walked, name, where):
    data = streams["uart"]
    previous = read_layout_bytes(data)
    reference = layout_from_gdsii(read_bytes(data))
    mutated = mutate(previous, name, where)
    assert mutate(reference, name, where) == mutated
    assert previous.cells[mutated].source_token is None
    assert all(c.source_token for n, c in previous.cells.items() if n != mutated)
    walked.clear()
    read_layout_bytes(data, previous=previous)
    assert walked == [mutated]
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

"""The ring buffer's derived tables, across mutations and version splices.

``RingBuffer.prefix_bounds()`` (the running bounds after every ring) and
``RingBuffer.xorder()`` (the ``xlo``-ordered index a walk step bisects) are
built only in a buffer that is due: a head copy of a large buffer a walk
step or a bounds pass scanned. A head copy (``extend`` from ring 0 into an
empty buffer) carries them, an append extends them, any other mutation
drops them. Whatever a buffer keeps must equal a fresh build (the index at
its band, at least the widest ring's width), after any op sequence and
after any version splice of ``read_layout_bytes(previous=)``: a wire
appended, inserted mid-structure, deleted, or moved to another layer. A
walk through the index returns the rings the linear walk returns, in the
same order.
"""

import random
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import diff as diff_module
from repro.errors import ReproError
from repro.gdsii import read_layout_bytes, write_bytes
from repro.geometry import EMPTY_RECT, Polygon, Rect, Transform
from repro.hierarchy.pruning import SubtreeWindow
from repro.hierarchy.tree import HierarchyTree
from repro.layout import Layout, gdsii_from_layout
from repro.layout import cell as cell_module
from repro.layout.cell import CellReference, RingBuffer, XOrder
from repro.server import ServerState
from repro.workloads import build_design

from .test_version_reuse import (  # noqa: F401 (streams: a fixture)
    CHAIN_STEPS,
    DESIGNS,
    TOP,
    chain_edit,
    edit_elements,
    moved_to_another_layer,
    name_of,
    references_in,
    split,
    streams,
)


def fresh_bounds(rings):
    """The prefix bounds of ``rings``, from the definition."""
    table, out = rings.mbrs, array("q")
    for j in range(len(rings)):
        prefix = table[: 4 * (j + 1)]
        out.extend((min(prefix[0::4]), min(prefix[1::4]), max(prefix[2::4]), max(prefix[3::4])))
    return out


def fresh_order(rings, band):
    """The x-ordered index of ``rings`` at ``band``, from the definition."""
    table = rings.mbrs
    ordered = sorted((table[4 * i], i) for i in range(len(rings)))
    keys = array("q", [xlo for xlo, _ in ordered])
    return XOrder(keys, array("q", [i for _, i in ordered]), band)


def widest(rings):
    table = rings.mbrs
    return max((table[4 * i + 2] - table[4 * i] for i in range(len(rings))), default=0)


def assert_fresh(rings):
    """What ``rings`` keeps is what a fresh build gives."""
    if rings._bounds is not None:
        assert rings._bounds == fresh_bounds(rings)
    if rings._order is not None:
        assert rings._order == fresh_order(rings, rings._order.band)
        assert rings._order.band >= widest(rings)
    table = rings.mbrs
    expected = (
        Rect(min(table[0::4]), min(table[1::4]), max(table[2::4]), max(table[3::4]))
        if table
        else EMPTY_RECT
    )
    assert rings.bounds() == expected


def force_tables(rings):
    rings.prefix_bounds()
    rings.xorder()


def linear_near(rings, windows):
    """The rings whose MBR meets one of ``windows``, in ring order."""
    table = rings.mbrs
    return [
        i
        for i in range(len(rings))
        if any(
            table[4 * i] <= wxhi
            and wxlo <= table[4 * i + 2]
            and table[4 * i + 1] <= wyhi
            and wylo <= table[4 * i + 3]
            for wxlo, wylo, wxhi, wyhi in windows
        )
    ]


def near(rings, windows):
    """What a walk step keeps of :meth:`RingBuffer.mbrs_near`, in its order."""
    return [
        i
        for i, (xlo, ylo, xhi, yhi) in rings.mbrs_near(windows)
        if any(
            xlo <= wxhi and wxlo <= xhi and ylo <= wyhi and wylo <= yhi
            for wxlo, wylo, wxhi, wyhi in windows
        )
    ]


@pytest.fixture()
def small_blocks():
    """Splice limits and the banded cut-off a few rings long, so short
    buffers take every path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cell_module, "SPLICE_MAX", 4)
        patch.setattr(cell_module, "BANDED_MIN", 3)
        yield


# -- op sequences --------------------------------------------------------------

#: Mostly narrow rings, now and then one far wider than the rest.
widths = st.one_of(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(100, 400))
boxes = st.tuples(st.integers(-50, 200), st.integers(-50, 200), widths, st.integers(1, 30))
ops = st.one_of(
    st.tuples(st.just("ring"), boxes),
    st.tuples(st.just("rectangles"), st.lists(boxes, min_size=1, max_size=8)),
    st.tuples(st.just("head"), st.floats(0, 1)),
    st.tuples(st.just("range"), st.floats(0, 1), st.floats(0, 1)),
    st.tuples(st.just("remove"), st.floats(0, 1)),
    st.tuples(st.just("drop"), st.floats(0, 1)),
    st.tuples(st.just("copy")),
    st.tuples(st.just("walk"), st.lists(boxes, min_size=1, max_size=3)),
    st.tuples(st.just("ask")),
)


def append_box(rings, box):
    x, y, w, h = box
    rings.append_ring([x, y, x, y + h, x + w, y + h, x + w, y], (x, y, x + w, y + h))


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.lists(boxes, max_size=12), st.lists(ops, max_size=12))
def test_kept_tables_equal_fresh_ones_after_any_op_sequence(small_blocks, start, sequence):
    """... and the rings a buffer shares at its head with each earlier one
    are those a ring-by-ring comparison finds, however either changed since
    ("drop" removes a ring from the version before the current one)."""
    rings = RingBuffer()
    for box in start:
        append_box(rings, box)
    versions = [rings]
    for op, *args in sequence:
        if op == "ring":
            append_box(rings, args[0])
        elif op == "rectangles":
            rings.append_rectangles(
                array("q", [v for x, y, w, h in args[0] for v in (x, y, x + w, y + h)])
            )
        elif op == "head":
            stop = int(args[0] * len(rings))
            twin = RingBuffer()
            twin.extend(rings, 0, stop)
            assert (twin._bounds is None) == (rings._bounds is None)  # carried, never built
            assert (twin._order is None) == (
                rings._order is None or len(rings) - stop > cell_module.SPLICE_MAX
            )
            assert (twin._walked == cell_module._DUE) == bool(rings._walked)
            rings = twin
        elif op == "range":
            lo, hi = sorted(int(f * len(rings)) for f in args)
            twin = RingBuffer()
            if lo == 0:
                append_box(twin, (0, 0, 1, 1))  # so the copy is not a head copy
            twin.extend(rings, lo, hi)
            assert twin._bounds is None and twin._order is None and not twin._walked
            rings = twin
        elif op == "remove" and len(rings):
            rings.remove(int(args[0] * (len(rings) - 1)))
            assert rings._bounds is None and rings._order is None and not rings._walked
        elif op == "drop" and len(versions) > 1 and len(versions[-2]):
            versions[-2].remove(int(args[0] * (len(versions[-2]) - 1)))
        elif op == "copy":
            rings = rings.copy()
        elif op == "walk":
            windows = [(x, y, x + w, y + h) for x, y, w, h in args[0]]
            had = rings._order is not None
            due = rings._walked == cell_module._DUE
            assert near(rings, windows) == linear_near(rings, windows)
            large = len(rings) >= cell_module.BANDED_MIN
            assert (rings._order is not None) == (had or (large and due))
        else:
            force_tables(rings)
        assert_fresh(rings)
        if rings is not versions[-1]:
            versions.append(rings)
        for other in versions:
            assert rings.shared_head(other) == other.shared_head(rings) == fresh_ends(rings, other)[0]


def test_the_band_is_the_widest_ring_and_widens_on_append():
    """A hundred narrow rings across a wide extent: the band is their
    width, and one window's band picks one ring. A chip-wide rail appended
    widens the band, so the band of a window on the right picks most rings
    and the walk falls back to every ring; the rings it keeps are still the
    right ones."""
    rings = RingBuffer()
    for k in range(100):
        append_box(rings, (100 * k, 0, 6, 6))
    assert rings.xorder().band == 6
    window = [(9000, 0, 9003, 3)]
    assert len(list(rings.mbrs_near(window))) == 1
    append_box(rings, (0, 50, 10_000, 1))
    assert rings._order.band == 10_000
    assert_fresh(rings)
    assert len(list(rings.mbrs_near(window))) == 101
    assert near(rings, window) == linear_near(rings, window) == [90]


def test_tables_are_built_only_where_they_will_be_carried():
    """A walk step or a bounds pass scans a large buffer and marks it
    scanned, building nothing; the buffer's next version (a head copy) is
    due and builds both tables on first ask, and its own head copies carry
    them. A version that ends in a tail copy, an unscanned buffer's head
    copy and a small buffer build nothing."""
    rings = RingBuffer()
    for k in range(200):
        append_box(rings, (37 * k % 5000, 11 * k % 700, 8, 8))
    window = [(100, 100, 140, 140)]
    unwalked = RingBuffer()
    unwalked.extend(rings, 0, 199)
    assert near(rings, window) == near(rings, window) == linear_near(rings, window)
    assert rings._bounds is None and rings._order is None  # a one-shot walk

    never = RingBuffer()
    never.extend(unwalked)  # the head copy of a buffer nothing scanned
    never.bounds()
    assert never._bounds is None
    for buffer in (unwalked, rings):  # neither is due
        buffer.bounds()
        assert buffer._bounds is None and buffer._walked == cell_module._WALKED
    bounded = RingBuffer()
    bounded.extend(unwalked)  # a bounds pass scanned it: due
    assert bounded._walked == cell_module._DUE
    bounded.bounds()
    assert bounded._bounds is not None
    assert_fresh(bounded)

    version = RingBuffer()
    version.extend(rings, 0, 199)  # a wire dropped at the end ...
    append_box(version, (4000, 300, 9, 9))  # ... and one appended
    assert version._walked == cell_module._DUE and version._bounds is None
    version.bounds()
    assert version._bounds is not None
    assert_fresh(version)
    assert near(version, window) == linear_near(version, window)
    assert version._order is not None

    carried = RingBuffer()
    carried.extend(version, 0, 200)
    assert carried._bounds is not None and carried._order is not None
    assert_fresh(carried)

    spliced = RingBuffer()
    spliced.extend(version, 0, 100)  # a head, a new middle, a tail
    append_box(spliced, (4100, 300, 9, 9))
    spliced.extend(version, 120)
    assert spliced._bounds is None and spliced._order is None and not spliced._walked
    spliced.bounds()
    near(spliced, window)
    assert spliced._bounds is None and spliced._order is None

    small = RingBuffer()
    for k in range(cell_module.BANDED_MIN - 1):
        append_box(small, (k, k, 1, 1))
    near(small, window)
    assert not small._walked


# -- the walk through the index ---------------------------------------------------


def walk_layout(rng, count):
    """``top`` with ``count`` rings on layer 1 (in every other layout a few
    chip-wide ones among them) over a child placed rigidly, mirrored and
    magnified."""
    rails = rng.random() < 0.5
    layout = Layout("walk")
    child = layout.new_cell("child")
    for _ in range(rng.randint(1, 90)):
        x, y = rng.randrange(500), rng.randrange(500)
        child.add_polygon(1, Polygon.from_rect_coords(x, y, x + rng.randint(1, 20), y + 5))
    top = layout.new_cell("top")
    for k in range(count):
        x, y = rng.randrange(-2000, 2000), rng.randrange(-2000, 2000)
        w = 4000 if rails and rng.random() < 0.03 else rng.randint(1, 60)
        ring = Polygon.from_rect_coords(x, y, x + w, y + rng.randint(1, 60), name=f"r{k}")
        top.add_polygon(1, ring)
    for placement in (
        Transform(dx=300, dy=-700),
        Transform(dx=-900, dy=100, rotation=90, mirror_x=True),
        Transform(dx=50, dy=50, magnification=2),
    ):
        top.add_reference(CellReference("child", placement))
    return layout


def random_windows(rng):
    """One to four windows, small or large, near each other or far apart."""
    out = []
    for _ in range(rng.randint(1, 4)):
        x, y = rng.randrange(-2500, 2500), rng.randrange(-2500, 2500)
        size = rng.choice((0, 10, 100, 1500))
        out.append(Rect(x, y, x + rng.randint(0, size), y + rng.randint(0, size)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 400))
def test_the_banded_walk_returns_the_linear_walk(seed, count):
    rng = random.Random(seed)
    tree = HierarchyTree(walk_layout(rng, count), top="top")
    cases = [
        (placement, random_windows(rng), named)
        for placement in (
            Transform(), Transform(dx=7, dy=-3, rotation=270), Transform(magnification=3)
        )
        for named in (False, True)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cell_module, "BANDED_MIN", 10**9)
        linear = [
            SubtreeWindow(tree).rings_in_regions("top", p, 1, w, named=named)
            for p, w, named in cases
        ]
    for cell in tree.layout.cells.values():
        for layer in cell.local_layers():
            cell.rings(layer).xorder()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cell_module, "BANDED_MIN", 1)
        banded = [
            SubtreeWindow(tree).rings_in_regions("top", p, 1, w, named=named)
            for p, w, named in cases
        ]
    assert banded == linear


# -- version splices -----------------------------------------------------------------


def spliced(data, rng):
    """``data`` with one structure edited: elements (wires among them)
    appended, inserted, deleted, replaced or nudged anywhere in it, or a
    rectangle moved to another layer. The largest structure, the top, most
    of the time."""
    head, structures, tail = split(data)
    leaves = [name_of(s) for s in structures if not references_in(s)]
    index = max(range(len(structures)), key=lambda i: len(structures[i]))
    if rng.random() < 0.3:
        index = rng.randrange(len(structures))
    edit = rng.choice(
        ("insert_elements", "delete_elements", "replace_elements", "nudge_element", "move")
    )
    if edit == "move":
        structures[index] = moved_to_another_layer(structures[index], rng)
    else:
        structures[index] = edit_elements(structures[index], edit, leaves, rng)[0]
    return head + b"".join(structures) + tail


@pytest.fixture(scope="module")
def uart_stream():
    return write_bytes(gdsii_from_layout(build_design("uart")))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_a_spliced_version_keeps_tables_equal_to_fresh_ones(uart_stream, seed, small):
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        if small:
            patch.setattr(cell_module, "SPLICE_MAX", 3)
        data = uart_stream
        layout = read_layout_bytes(data)
        for _ in range(3):
            for cell in layout.cells.values():
                for layer in cell.local_layers():
                    if rng.random() < 0.7:
                        force_tables(cell.rings(layer))
            edited = spliced(data, rng)
            try:
                layout = read_layout_bytes(edited, previous=layout)
            except ReproError:  # an element the reader refuses: keep the last version
                continue
            data = edited
            for cell in layout.cells.values():
                for layer in cell.local_layers():
                    assert_fresh(cell.rings(layer))


# -- a served chain ---------------------------------------------------------------------


def fresh_ends(a, b):
    """How many rings lead and then close both buffers alike, ring by ring."""

    def rings(buffer):
        offsets = buffer.offsets
        return [tuple(buffer.coords[x:y]) for x, y in zip(offsets, offsets[1:])]

    old, new = rings(a), rings(b)
    limit = min(len(old), len(new))
    head = 0
    while head < limit and old[head] == new[head]:
        head += 1
    tail = 0
    while tail < limit - head and old[-1 - tail] == new[-1 - tail]:
        tail += 1
    return head, tail


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    steps=st.lists(
        st.tuples(st.sampled_from(CHAIN_STEPS), st.integers(0, 2**32 - 1)), min_size=4, max_size=8
    ),
)
def test_a_served_chain_carries_fresh_bounds_and_common_ends(streams, design, steps):
    """Versions loaded as the daemon loads them, each against the last, and
    walked: every buffer's carried prefix bounds, index and bounds are
    fresh ones, and the diff's common ends of each (cell, layer) of two
    versions are those a ring-by-ring comparison finds."""
    data, top = streams[design], TOP
    version = ServerState._load_version(data, top)
    for edit, seed in steps:
        rng = random.Random(seed)
        new_data, new_top = chain_edit(data, top, edit, rng)
        try:
            new = ServerState._load_version(new_data, new_top, version)
        except ReproError:  # a version the reader refuses: keep the last
            continue
        (old_layout, _, _), (layout, tree, _) = version, new
        for layer in layout.cell(new_top).local_layers():
            SubtreeWindow(tree).rings_in_regions(new_top, Transform(), layer, random_windows(rng))
        for name, cell in layout.cells.items():
            old = old_layout.cells.get(name)
            for layer in cell.local_layers():
                rings = cell.rings(layer)
                assert_fresh(rings)
                old_rings = old.rings(layer) if old is not None else None
                if old_rings is not None:
                    ends = diff_module._common_ends(old_rings, rings)
                    assert ends == fresh_ends(old_rings, rings)
        version, data, top = new, new_data, new_top

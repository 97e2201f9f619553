"""The span-bounded local diff equals the whole-buffer one it replaced.

:func:`repro.core.diff._cell_local_dirty` skips the rings that lead and
close both buffers equal and multiset-diffs only the span between them;
``tests/reference_diff.py`` is the procedure that turned every ring into
bytes. Over generated edits — rings inserted, deleted, replaced and
duplicated at random positions, including a ring rewritten from another
start vertex (equal as a polygon, not as bytes) — both give the same
dirty rects, and so the same :class:`RegionSet`.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.diff import _cell_local_dirty
from repro.geometry import Point, Polygon
from repro.layout import Layout
from repro.layout.cell import RingBuffer
from repro.spatial.regions import RegionSet

from .reference_diff import cell_local_dirty as reference_dirty


def _rect(x, y, w, h):
    return [(x, y), (x, y + h), (x + w, y + h), (x + w, y)]


#: Rings the generated buffers are drawn from: distinct rectangles, one
#: rectangle again from another start vertex, and a six-vertex ring.
POOL = [_rect(10 * i, 3 * i, 5 + i, 7) for i in range(6)] + [
    _rect(0, 0, 5, 7)[2:] + _rect(0, 0, 5, 7)[:2],
    [(0, 0), (0, 30), (10, 30), (10, 10), (40, 10), (40, 0)],
]
LAYER = 1

ring = st.integers(0, len(POOL) - 1)
edit = st.tuples(
    st.sampled_from(("insert", "delete", "replace", "duplicate")),
    st.integers(0, 10**6),
    ring,
)


def apply(rings, edits):
    rings = list(rings)
    for op, at, index in edits:
        if op == "insert":
            rings.insert(at % (len(rings) + 1), index)
        elif rings:
            at %= len(rings)
            if op == "delete":
                del rings[at]
            elif op == "replace":
                rings[at] = index
            else:
                rings.insert(at, rings[at])
    return rings


def cell_of(rings):
    """A cell holding ``rings`` (pool indices) in order; None for no cell."""
    if rings is None:
        return None
    cell = Layout("d").new_cell("top")
    for index in rings:
        cell.add_polygon(LAYER, Polygon._normalised(tuple(Point(*p) for p in POOL[index])))
    return cell


@settings(max_examples=300, deadline=None)
@given(
    old=st.one_of(st.none(), st.lists(ring, max_size=24)),
    edits=st.lists(edit, max_size=6),
    drop_new=st.booleans(),
)
def test_the_span_diff_is_the_whole_buffer_diff(old, edits, drop_new):
    new = None if drop_new and not edits else apply(old or [], edits)
    old_cell, new_cell = cell_of(old), cell_of(new)
    got = _cell_local_dirty(old_cell, new_cell, LAYER)
    expected = reference_dirty(old_cell, new_cell, LAYER)
    assert sorted(got) == sorted(expected)
    assert RegionSet.of(got).rects == RegionSet.of(expected).rects


def test_only_the_changed_span_becomes_bytes(monkeypatch):
    old = [index % 6 for index in range(40)]
    new = old[:17] + [7] + old[19:]  # two rings replaced by one, mid-buffer
    spans = []
    ring_bytes = RingBuffer.ring_bytes

    def spy(rings, *args):
        keys = ring_bytes(rings, *args)
        spans.append(len(keys))
        return keys

    monkeypatch.setattr(RingBuffer, "ring_bytes", spy)
    dirty = _cell_local_dirty(cell_of(old), cell_of(new), LAYER)
    assert sorted(spans) == [1, 2]
    monkeypatch.undo()
    assert sorted(dirty) == sorted(reference_dirty(cell_of(old), cell_of(new), LAYER))

"""The ring buffer's rectangle column.

``RingBuffer.rect_flags()`` holds one byte per ring: whether
``is_rectangle_ring`` holds for the ring's points. It is computed once, on
first use, and every mutation drops it, as every mutation drops the polygon
view; a copy does not share it and a pickle does not carry it.
"""

import pickle
import sys
import threading
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.geometry import Polygon
from repro.geometry.polygon import is_rectangle_ring
from repro.layout.cell import RingBuffer

small = st.integers(min_value=-3, max_value=3)


def _mbr(ring):
    xs, ys = [x for x, _ in ring], [y for _, y in ring]
    return min(xs), min(ys), max(xs), max(ys)


@st.composite
def rings(draw):
    """A ring as its ``(x, y)`` vertices: a stored rectangle, one starting at
    another corner or running the other way, a degenerate one, any four
    points on a small grid (rectangles, slivers, diamonds, repeats), or any
    other vertex count."""
    form = draw(st.sampled_from(["rect", "rotated", "degenerate", "four", "other"]))
    xlo, ylo = draw(small), draw(small)
    xhi, yhi = xlo + draw(st.integers(1, 4)), ylo + draw(st.integers(1, 4))
    corners = [(xlo, ylo), (xlo, yhi), (xhi, yhi), (xhi, ylo)]
    if form == "rect":
        return corners
    if form == "rotated":
        start = draw(st.integers(0, 3))
        turned = corners[start:] + corners[:start]
        return turned[::-1] if draw(st.booleans()) else turned
    if form == "degenerate":
        return [(xlo, ylo), (xlo, yhi), (xlo, yhi), (xlo, ylo)]
    point = st.tuples(small, small)
    if form == "four":
        return draw(st.lists(point, min_size=4, max_size=4))
    return draw(st.lists(point, min_size=1, max_size=9).filter(lambda r: len(r) != 4))


def buffer_of(ring_list):
    rings_buffer = RingBuffer()
    for ring in ring_list:
        rings_buffer.append_ring([c for vertex in ring for c in vertex], _mbr(ring))
    return rings_buffer


@settings(max_examples=300, deadline=None)
@given(st.lists(rings(), max_size=12))
def test_flag_is_is_rectangle_ring_of_the_points(ring_list):
    rings_buffer = buffer_of(ring_list)
    flags = rings_buffer.rect_flags()
    assert isinstance(flags, bytes) and len(flags) == len(rings_buffer)
    assert list(flags) == [
        int(is_rectangle_ring(rings_buffer.points(i))) for i in range(len(rings_buffer))
    ]
    assert rings_buffer.rect_flags() is flags  # computed once


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(small, small, st.integers(0, 3), st.integers(0, 3)), max_size=10))
def test_appended_rectangles_read_one_unless_degenerate(boxes):
    """``append_rectangles`` lays rings out as the ``Polygon`` constructor
    does; degenerate boxes among them read 0."""
    rings_buffer = RingBuffer()
    rings_buffer.append_rectangles(
        array("q", [v for x, y, w, h in boxes for v in (x, y, x + w, y + h)])
    )
    assert list(rings_buffer.rect_flags()) == [
        int(is_rectangle_ring(rings_buffer.points(i))) for i in range(len(rings_buffer))
    ]
    assert list(rings_buffer.rect_flags()) == [int(w > 0 and h > 0) for _, _, w, h in boxes]


def test_rings_of_other_lengths_that_spell_the_rectangle_pattern():
    """A 3-vertex and a 5-vertex ring whose coordinates, back to back, are
    exactly the two rectangles of their MBRs: only the offsets tell them
    apart, and neither is a rectangle."""
    triangle = [(0, 0), (0, 2), (2, 2)]
    five = [(2, 0), (0, 0), (0, 2), (2, 2), (2, 0)]
    rings_buffer = buffer_of([triangle, five])
    assert list(rings_buffer.coords) == [0, 0, 0, 2, 2, 2, 2, 0] * 2
    assert rings_buffer.rect_flags() == b"\x00\x00"


def _computed():
    rings_buffer = RingBuffer()
    rings_buffer.append(Polygon.from_rect_coords(0, 0, 4, 2))
    rings_buffer.append(Polygon([(0, 0), (0, 4), (2, 4), (2, 2), (4, 2), (4, 0)]))
    assert rings_buffer.rect_flags() == b"\x01\x00"
    return rings_buffer


MUTATIONS = {
    "append_ring": lambda b: b.append_ring([0, 0, 0, 1, 1, 1, 1, 0], (0, 0, 1, 1)),
    "append_rectangles": lambda b: b.append_rectangles(array("q", [5, 5, 6, 7])),
    "append": lambda b: b.append(Polygon.from_rect_coords(9, 9, 12, 10)),
    "remove": lambda b: b.remove(0),
    "__setstate__": lambda b: b.__setstate__(_computed().__getstate__()),
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=list(MUTATIONS))
def test_every_mutation_drops_the_column(mutate):
    rings_buffer = _computed()
    mutate(rings_buffer)
    assert rings_buffer._rects is None
    assert list(rings_buffer.rect_flags()) == [
        int(is_rectangle_ring(rings_buffer.points(i))) for i in range(len(rings_buffer))
    ]


def test_copy_and_pickle_do_not_carry_the_column():
    rings_buffer = _computed()
    assert rings_buffer.copy()._rects is None
    fresh = RingBuffer()
    fresh.append(Polygon.from_rect_coords(0, 0, 4, 2))
    fresh.append(Polygon([(0, 0), (0, 4), (2, 4), (2, 2), (4, 2), (4, 0)]))
    assert fresh._rects is None
    # The pickle is the same bytes with the column computed or not.
    assert pickle.dumps(rings_buffer) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(rings_buffer))._rects is None


def test_racing_first_uses_compute_equal_columns():
    """More threads than cores race on a fresh buffer's first use, with a
    short switch interval: each sees the one correct column."""
    for _ in range(20):
        rings_buffer = RingBuffer()
        rings_buffer.append_rectangles(array("q", range(0, 4000)))  # every box 2 x 2
        rings_buffer.append(Polygon([(0, 0), (0, 4), (2, 4), (2, 2), (4, 2), (4, 0)]))
        seen = []
        start = threading.Barrier(8)

        def first_use():
            start.wait(timeout=10)
            seen.append(rings_buffer.rect_flags())

        threads = [threading.Thread(target=first_use) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [b"\x01" * 1000 + b"\x00"] * 8
        assert rings_buffer.rect_flags() == seen[0]

"""Data-parallel check kernels (paper §IV-E) as NumPy array programs.

Before checking, the engine packs the edges of the relevant polygons into
flattened arrays (:func:`pack_edges`) that are copied to the simulated
device. Two executors are provided per the paper:

* the **brute-force** executor enumerates all edge pairs of a task at once —
  right for smaller tasks;
* the **sweepline** executor mirrors X-Check's two-kernel design: a first
  parallel pass (sort + scan) determines each edge's *check range* — the
  slice of edges within the rule distance — and a second pass checks every
  edge against exactly the edges in its range. The two passes are separate
  functions, as the paper separates the two kernel launches.

Fused (segmented) execution: after the adaptive row partition, every row is
an independent task, but launching one kernel per row wastes the device on
launch latency and tiny grids. The segmented kernel variants
(:func:`kernel_pairs_bruteforce_segmented`, :func:`kernel_pairs_sweep_segmented`,
:func:`kernel_corner_pairs_segmented`) take buffers carrying a ``segment``
(row-id) array and evaluate *all* rows in a single launch, so R rows cost
one kernel and one copy set instead of R of each. They enumerate in-segment
candidates only: brute force walks each segment's own pairs, and the range
scans (edges, corners, the banded :func:`kernel_enclosure_candidates`) sort
on a composite key led by the segment, so no range crosses a row.

Edge classification matches :mod:`repro.checks.edges` bit for bit: an edge
carries the sign of its interior normal along the perpendicular axis, and

* a *width* pair has interiors facing: ``interior[a] = +1``,
  ``interior[b] = -1`` with ``fixed[b] > fixed[a]`` and the same polygon;
* a *spacing* pair has exteriors facing: ``interior[a] = -1``,
  ``interior[b] = +1`` with ``fixed[b] > fixed[a]``, any polygons (the
  same-polygon case is a notch).

All kernels return a :class:`PairHits` batch of violation strips; the engine
converts them to :class:`~repro.checks.base.Violation` objects on the host.

Column widths: a buffer's coordinates are offsets from the origin of its
:class:`Frame`, ``int32`` where the frame proves every offset, and every
offset moved by the rule value, fits (else ``int64`` from origin 0).
Differences of two offsets then fit as well, so kernels subtract and
compare in the columns' own width and widen to ``int64`` before any
product, square or composite sort key. Interior and quadrant signs are
``int8``; polygon and segment ids ``int32`` while their count fits.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Polygon

_INT = np.int64

#: The largest value an ``int32`` column holds.
INT32_MAX = int(np.iinfo(np.int32).max)

#: Candidate pairs one fused launch materialises at a time: the thread-block
#: tiling of the paper's §IV-E grid. Each block's index, coordinate and mask
#: temporaries are a few dozen bytes per pair, so a launch's transient
#: memory stays near ``PAIR_BLOCK`` pairs' worth whatever its candidate count.
PAIR_BLOCK = 1 << 14


def narrow_ids(values: np.ndarray, bound: int) -> np.ndarray:
    """Ids below ``bound`` as ``int32`` when ``bound`` fits in it, else as
    they are: arrays concatenated from such parts come out ``int64`` as soon
    as one part needs it."""
    return values.astype(np.int32) if bound <= INT32_MAX else values


@dataclasses.dataclass(frozen=True)
class Frame:
    """Where a buffer's coordinate columns are measured from, and how wide.

    Columns hold ``coordinate - origin``. :meth:`around` picks ``int32`` and
    the low corner of an extent when the extent's width and height plus
    ``reach`` (the largest rule value a kernel adds to a coordinate) stay
    within ``int32``: every offset lies in ``[0, extent]`` and every offset
    moved by the rule value in ``[-reach, extent + reach]``. A placed
    coordinate is a sum of ``int32`` GDSII offsets and can pass 2**31 itself,
    so the top frame's own coordinates are not bounded; an extent that does
    not fit keeps them, ``int64`` from origin 0.
    """

    x: int = 0
    y: int = 0
    dtype: type = _INT

    @classmethod
    def around(cls, xlo: int, ylo: int, xhi: int, yhi: int, reach: int) -> "Frame":
        """The narrowest frame for geometry inside ``[xlo, xhi] x [ylo, yhi]``."""
        if xlo <= xhi and ylo <= yhi and max(xhi - xlo, yhi - ylo) + reach <= INT32_MAX:
            return cls(xlo, ylo, np.int32)
        return cls()

    @classmethod
    def of_rects(cls, rects: np.ndarray, reach: int) -> "Frame":
        """:meth:`around` the union of ``(n, 4)`` ``rects``."""
        if not len(rects):
            return cls()
        low, high = rects.min(axis=0).tolist(), rects.max(axis=0).tolist()
        return cls.around(low[0], low[1], high[2], high[3], reach)

    def shift(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinates inside the frame's extent as offsets from its origin,
        in its width."""
        return (
            (xs - self.x).astype(self.dtype, copy=False),
            (ys - self.y).astype(self.dtype, copy=False),
        )

    def restore(self, xlo, ylo, xhi, yhi) -> np.ndarray:
        """Offset columns back in the frame's own coordinates, as one
        ``(n, 4)`` ``int64`` array."""
        return np.stack(
            [
                np.add(column, origin, dtype=_INT)
                for column, origin in zip((xlo, ylo, xhi, yhi), (self.x, self.y) * 2)
            ],
            axis=1,
        )


#: Columns in top-frame coordinates, ``int64``.
TOP_FRAME = Frame()


@dataclasses.dataclass
class EdgeBuffer:
    """Flattened edges of one orientation.

    ``fixed`` is the supporting-line coordinate (x for vertical edges, y for
    horizontal); ``lo``/``hi`` the span along the other axis; ``interior``
    the +/-1 sign of the interior normal along the perpendicular axis;
    ``poly`` the owning polygon id. ``segment`` (optional) carries the
    row-partition id of each edge; the segmented kernels never pair edges
    from different segments.
    """

    vertical: bool
    fixed: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    interior: np.ndarray
    poly: np.ndarray
    segment: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.fixed)

    @property
    def nbytes(self) -> int:
        total = self.fixed.nbytes + self.lo.nbytes + self.hi.nbytes + (
            self.interior.nbytes + self.poly.nbytes
        )
        if self.segment is not None:
            total += self.segment.nbytes
        return total

    def take(self, order: np.ndarray) -> "EdgeBuffer":
        """Reindexed copy (device-side gather)."""
        return EdgeBuffer(
            self.vertical,
            self.fixed[order],
            self.lo[order],
            self.hi[order],
            self.interior[order],
            self.poly[order],
            None if self.segment is None else self.segment[order],
        )

    def sorted_by_fixed(self) -> "EdgeBuffer":
        """Stable-sorted copy by supporting-line coordinate (sweep pass 1a)."""
        return self.take(np.argsort(self.fixed, kind="stable"))


@dataclasses.dataclass
class PairHits:
    """Violation strips found by a pair kernel (device-side result arrays)."""

    xlo: np.ndarray
    ylo: np.ndarray
    xhi: np.ndarray
    yhi: np.ndarray
    measured: np.ndarray
    poly_a: np.ndarray
    poly_b: np.ndarray

    def __len__(self) -> int:
        return len(self.measured)

    @classmethod
    def empty(cls) -> "PairHits":
        z = np.zeros(0, dtype=_INT)
        return cls(z, z, z, z, z, z, z)

    @classmethod
    def concatenate(cls, batches: Sequence["PairHits"]) -> "PairHits":
        real = [b for b in batches if len(b)]
        if not real:
            return cls.empty()
        return cls(*[np.concatenate([getattr(b, f.name) for b in real])
                     for f in dataclasses.fields(cls)])


def pack_edges(
    polygons: Sequence[Polygon], poly_ids: Optional[Sequence[int]] = None
) -> Dict[str, EdgeBuffer]:
    """Pack polygon edges into per-orientation flattened arrays.

    Returns ``{"v": vertical_buffer, "h": horizontal_buffer}``. ``poly_ids``
    defaults to the polygon's index in the sequence.
    """
    counts = np.fromiter(
        (len(p.vertices) for p in polygons), dtype=_INT, count=len(polygons)
    )
    total = int(counts.sum())
    xs = np.fromiter(
        (v.x for p in polygons for v in p.vertices), dtype=_INT, count=total
    )
    ys = np.fromiter(
        (v.y for p in polygons for v in p.vertices), dtype=_INT, count=total
    )
    return edges_from_vertices(xs, ys, counts, poly_ids)


def edges_from_vertices(
    xs: np.ndarray,
    ys: np.ndarray,
    counts: np.ndarray,
    poly_ids: Optional[Sequence[int]] = None,
) -> Dict[str, EdgeBuffer]:
    """The edges of clockwise rings stored back to back, ``counts[i]``
    vertices each, as ``{"v": vertical_buffer, "h": horizontal_buffer}``.

    Fully vectorised: successors come from a wrap-around index array (as in
    :func:`kernel_area`), and the two orientations split with boolean masks
    — no per-edge Python tuples. ``poly_ids`` defaults to the ring's index.
    """
    total = len(xs)
    if total == 0:
        z = np.zeros(0, dtype=xs.dtype)
        return {
            "v": EdgeBuffer(True, z, z, z, z, z),
            "h": EdgeBuffer(False, z, z, z, z, z),
        }
    offsets = np.cumsum(counts) - counts
    nxt = np.arange(total, dtype=_INT) + 1
    nxt[offsets + counts - 1] = offsets  # each ring's last edge wraps
    x2, y2 = xs[nxt], ys[nxt]
    if poly_ids is None:
        pid = np.repeat(narrow_ids(np.arange(len(counts)), len(counts)), counts)
    else:
        pid = np.repeat(np.asarray(poly_ids, dtype=_INT), counts)

    vmask = xs == x2  # vertical; NORTH (+y travel) has interior east (+1)
    v = EdgeBuffer(
        True,
        xs[vmask],
        np.minimum(ys, y2)[vmask],
        np.maximum(ys, y2)[vmask],
        np.where(y2 > ys, 1, -1).astype(np.int8)[vmask],
        pid[vmask],
    )
    hmask = ~vmask  # horizontal; EAST (+x travel) has interior south (-1)
    h = EdgeBuffer(
        False,
        ys[hmask],
        np.minimum(xs, x2)[hmask],
        np.maximum(xs, x2)[hmask],
        np.where(x2 > xs, -1, 1).astype(np.int8)[hmask],
        pid[hmask],
    )
    return {"v": v, "h": h}


# ---------------------------------------------------------------------------
# Pair evaluation shared by all executors
# ---------------------------------------------------------------------------


def _evaluate_pairs(
    buf: EdgeBuffer,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    threshold: int,
    *,
    want_width: bool,
) -> PairHits:
    """Classify candidate (a, b) pairs with ``fixed[b] >= fixed[a]`` intended.

    Width pairs require ``interior[a] == +1`` and ``interior[b] == -1`` and
    the same polygon; spacing pairs the opposite signs, a strictly positive
    gap, and any polygons. The segmented callers enumerate in-segment
    pairs only, so ``segment`` is not looked at here.
    """
    if len(idx_a) == 0:
        return PairHits.empty()
    fa = buf.fixed[idx_a]
    fb = buf.fixed[idx_b]
    gap = fb - fa
    lo = np.maximum(buf.lo[idx_a], buf.lo[idx_b])
    hi = np.minimum(buf.hi[idx_a], buf.hi[idx_b])
    sign_a = 1 if want_width else -1
    mask = (
        (gap >= 1)  # facing needs a strictly positive separation (host parity)
        & (gap < threshold)
        & (hi > lo)
        & (buf.interior[idx_a] == sign_a)
        & (buf.interior[idx_b] == -sign_a)
    )
    if want_width:
        mask &= buf.poly[idx_a] == buf.poly[idx_b]
    if not mask.any():
        return PairHits.empty()
    fa, fb, lo, hi, gap = fa[mask], fb[mask], lo[mask], hi[mask], gap[mask]
    pa = buf.poly[idx_a[mask]]
    pb = buf.poly[idx_b[mask]]
    if buf.vertical:
        return PairHits(fa, lo, fb, hi, gap, pa, pb)
    return PairHits(lo, fa, hi, fb, gap, pa, pb)


def _range_blocks(counts: np.ndarray, chunk: int):
    """Yield ``(rows, offsets)`` blocks that unroll per-row check ranges.

    Row ``i`` appears ``counts[i]`` times with offsets ``0 .. counts[i]-1``,
    so ``begin[rows] + offsets`` walks its range. Each block holds whole
    rows and at most ``chunk`` pairs — the thread-block tiling of the fused
    grid — except a block of one row that alone exceeds ``chunk``. Blocks
    run in row order, so the concatenated pairs do not depend on ``chunk``.
    """
    n = len(counts)
    cum = np.cumsum(counts)
    row0 = 0
    base = 0
    while row0 < n:
        row1 = int(np.searchsorted(cum, base + chunk, side="right"))
        row1 = max(row1, row0 + 1)
        rows = np.arange(row0, row1, dtype=_INT)
        c = counts[row0:row1]
        total = int(c.sum())
        if total:
            cc = np.cumsum(c)
            yield np.repeat(rows, c), np.arange(total, dtype=_INT) - np.repeat(cc - c, c)
        base += total
        row0 = row1


# ---------------------------------------------------------------------------
# Brute-force executor (smaller tasks)
# ---------------------------------------------------------------------------


def kernel_pairs_bruteforce(
    buf: EdgeBuffer, threshold: int, *, want_width: bool, chunk: int = 1024
) -> PairHits:
    """All-pairs kernel: one simulated thread per edge pair.

    Pairs are oriented so ``fixed[b] >= fixed[a]`` (with a deterministic
    tie-break) so every geometric pair is evaluated exactly once. ``chunk``
    bounds the materialized pair block, standing in for the thread-block
    size of the CUDA grid.
    """
    n = len(buf)
    if n < 2:
        return PairHits.empty()
    batches: List[PairHits] = []
    for start in range(0, n - 1, chunk):
        # Upper-triangular enumeration: row i contributes pairs (i, i+1..n-1),
        # so each unordered pair is materialized exactly once — half the
        # memory of the old full chunk×n block + mask. Orientation is fixed
        # afterwards so ``fixed[b] >= fixed[a]`` still holds; equal-fixed
        # pairs survive enumeration but the ``gap >= 1`` mask rejects them,
        # exactly as the old strict ``<`` filter did.
        rows = np.arange(start, min(start + chunk, n - 1), dtype=_INT)
        c = (n - 1) - rows
        total = int(c.sum())
        idx_a = np.repeat(rows, c)
        cc = np.cumsum(c)
        offsets = np.arange(total, dtype=_INT) - np.repeat(cc - c, c)
        idx_b = idx_a + 1 + offsets
        swap = buf.fixed[idx_a] > buf.fixed[idx_b]
        a = np.where(swap, idx_b, idx_a)
        b = np.where(swap, idx_a, idx_b)
        batches.append(
            _evaluate_pairs(buf, a, b, threshold, want_width=want_width)
        )
    return PairHits.concatenate(batches)


# ---------------------------------------------------------------------------
# Sweepline executor (larger tasks): two kernels, as in X-Check / the paper
# ---------------------------------------------------------------------------


def kernel_sweep_ranges(sorted_buf: EdgeBuffer, threshold: int) -> Tuple[np.ndarray, np.ndarray]:
    """Kernel 1: per-edge check range over the fixed-coordinate-sorted buffer.

    For each edge ``i`` the range is the index slice ``[begin[i], end[i])``
    of edges whose supporting line lies within ``threshold - 1`` beyond
    edge ``i``'s (strictly to its right for spacing, inclusively at equal
    coordinates handled by the caller's tie rule). Computed with two
    vectorized binary searches — the parallel-scan stand-in.
    """
    fixed = sorted_buf.fixed
    begin = np.searchsorted(fixed, fixed, side="right")
    end = np.searchsorted(fixed, fixed + (threshold - 1), side="right")
    return begin.astype(_INT), end.astype(_INT)


def kernel_sweep_check(
    sorted_buf: EdgeBuffer,
    begin: np.ndarray,
    end: np.ndarray,
    threshold: int,
    *,
    want_width: bool,
    chunk: int = PAIR_BLOCK,
) -> PairHits:
    """Kernel 2: one simulated thread per edge checks its whole range,
    ``chunk`` pairs per block."""
    return PairHits.concatenate(
        [
            _evaluate_pairs(
                sorted_buf, idx_a, begin[idx_a] + offsets, threshold, want_width=want_width
            )
            for idx_a, offsets in _range_blocks((end - begin).clip(min=0), chunk)
        ]
    )


def kernel_pairs_sweep(buf: EdgeBuffer, threshold: int, *, want_width: bool) -> PairHits:
    """Both sweep kernels back to back (sort -> ranges -> checks)."""
    sorted_buf = buf.sorted_by_fixed()
    begin, end = kernel_sweep_ranges(sorted_buf, threshold)
    return kernel_sweep_check(sorted_buf, begin, end, threshold, want_width=want_width)


# ---------------------------------------------------------------------------
# Segmented (fused) executors: all rows of a rule in one launch
# ---------------------------------------------------------------------------


def _segmented_ranges(
    coord: np.ndarray, segment: np.ndarray, threshold: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort order and per-item check ranges over ``(segment, coord)``.

    The composite key keeps segments contiguous and at least
    ``threshold + 1`` apart, so the range scan of :func:`kernel_sweep_ranges`
    — items within ``threshold - 1`` beyond each item — can never produce a
    cross-segment range.
    """
    cmin = int(coord.min())
    span = int(coord.max()) - cmin + max(int(threshold), 0) + 1
    key = segment.astype(_INT) * span + (coord - cmin)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    begin = np.searchsorted(skey, skey, side="right").astype(_INT)
    end = np.searchsorted(skey, skey + (threshold - 1), side="right").astype(_INT)
    return order, begin, end


def kernel_pairs_bruteforce_segmented(
    buf: EdgeBuffer, threshold: int, *, want_width: bool, chunk: int = PAIR_BLOCK
) -> PairHits:
    """Batched brute force over every segment in one launch.

    Edges are grouped by segment (stable sort keeps in-row order); each
    unordered in-segment pair is enumerated exactly once and oriented so
    ``fixed[b] >= fixed[a]``, matching the per-task brute-force kernel.
    """
    n = len(buf)
    if n < 2:
        return PairHits.empty()
    if buf.segment is None:
        return kernel_pairs_bruteforce(buf, threshold, want_width=want_width)
    s = buf.take(np.argsort(buf.segment, kind="stable"))
    seg_end = np.searchsorted(s.segment, s.segment, side="right")
    counts = (seg_end - np.arange(n, dtype=_INT) - 1).clip(min=0)
    batches: List[PairHits] = []
    for idx_a, offsets in _range_blocks(counts, chunk):
        idx_b = idx_a + 1 + offsets
        swap = s.fixed[idx_a] > s.fixed[idx_b]
        a = np.where(swap, idx_b, idx_a)
        b = np.where(swap, idx_a, idx_b)
        batches.append(_evaluate_pairs(s, a, b, threshold, want_width=want_width))
    return PairHits.concatenate(batches)


def kernel_pairs_sweep_segmented(
    buf: EdgeBuffer, threshold: int, *, want_width: bool
) -> PairHits:
    """Segmented two-kernel sweep: all segments sorted and scanned at once.

    Edges sort on the composite key of :func:`_segmented_ranges`; the check
    kernel is then identical to the per-task sweep.
    """
    if len(buf) < 2:
        return PairHits.empty()
    if buf.segment is None:
        return kernel_pairs_sweep(buf, threshold, want_width=want_width)
    order, begin, end = _segmented_ranges(buf.fixed, buf.segment, threshold)
    return kernel_sweep_check(
        buf.take(order), begin, end, threshold, want_width=want_width
    )


# ---------------------------------------------------------------------------
# Area kernel
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class VertexBuffer:
    """Flattened polygon vertices with per-polygon offsets (for reduceat)."""

    xs: np.ndarray
    ys: np.ndarray
    offsets: np.ndarray  # start index of each polygon; len == npolys
    counts: np.ndarray
    poly: np.ndarray  # polygon ids, len == npolys

    def __len__(self) -> int:
        return len(self.offsets)


def pack_vertices(
    polygons: Sequence[Polygon], poly_ids: Optional[Sequence[int]] = None
) -> VertexBuffer:
    """Pack polygon vertex lists into one flat buffer."""
    xs: List[int] = []
    ys: List[int] = []
    offsets: List[int] = []
    counts: List[int] = []
    ids: List[int] = []
    for index, polygon in enumerate(polygons):
        offsets.append(len(xs))
        counts.append(len(polygon.vertices))
        ids.append(poly_ids[index] if poly_ids is not None else index)
        for p in polygon.vertices:
            xs.append(p.x)
            ys.append(p.y)
    return VertexBuffer(
        np.asarray(xs, dtype=_INT),
        np.asarray(ys, dtype=_INT),
        np.asarray(offsets, dtype=_INT),
        np.asarray(counts, dtype=_INT),
        np.asarray(ids, dtype=_INT),
    )


def kernel_area(buf: VertexBuffer) -> np.ndarray:
    """Shoelace areas of all packed polygons (one simulated thread each)."""
    if len(buf) == 0:
        return np.zeros(0, dtype=_INT)
    nxt = np.arange(len(buf.xs), dtype=_INT) + 1
    ends = buf.offsets + buf.counts
    # The successor of each polygon's last vertex wraps to its first.
    nxt[ends - 1] = buf.offsets
    xs, ys = buf.xs.astype(_INT), buf.ys.astype(_INT)
    cross = xs * ys[nxt] - xs[nxt] * ys
    sums = np.add.reduceat(cross, buf.offsets)
    return np.abs(sums) // 2


# ---------------------------------------------------------------------------
# Enclosure kernels (rectangle fast path)
# ---------------------------------------------------------------------------


def enclosure_candidate_blocks(
    windows: np.ndarray,
    metal_rects: np.ndarray,
    window_segment: np.ndarray,
    metal_segment: np.ndarray,
    chunk: int = PAIR_BLOCK,
):
    """Enumerate step of :func:`kernel_enclosure_candidates`.

    Yields ``(window, metal, first)`` index blocks holding every pair the
    banded range scan visits, before the exact test. Y-bands are as high as
    the tallest rect, so a rect touches at most two, and every rect is
    entered once per band it touches. Metal entries sort on the key
    ``(segment, band, xlo)``; a window entry scans, in its own segment and
    band, the ``xlo`` range ``[window xlo - widest metal, window xhi]``,
    which holds every metal overlapping it in x. A pair overlapping in y
    meets in every band the overlap touches; ``first`` marks the occurrence
    to keep — the band holding the overlap's low corner, which is the first
    band of one of the two rects.
    """
    y0 = min(int(windows[:, 1].min()), int(metal_rects[:, 1].min()))
    height = max(
        int((windows[:, 3] - windows[:, 1]).max()),
        int((metal_rects[:, 3] - metal_rects[:, 1]).max()),
        1,
    )
    bands = (max(int(windows[:, 3].max()), int(metal_rects[:, 3].max())) - y0) // height + 1

    def entries(rects, segment):
        lo = (rects[:, 1] - y0) // height
        touched = (rects[:, 3] - y0) // height - lo + 1
        owner = np.repeat(np.arange(len(rects), dtype=_INT), touched)
        step = np.arange(len(owner), dtype=_INT) - np.repeat(
            np.cumsum(touched) - touched, touched
        )
        return owner, step == 0, segment[owner].astype(_INT) * bands + lo[owner] + step

    metal, metal_first, metal_group = entries(metal_rects, metal_segment)
    window, window_first, window_group = entries(windows, window_segment)
    # Dense group ranks keep the composite key inside int64 whatever the
    # extent; a window entry whose (segment, band) holds no metal drops out.
    groups, rank = np.unique(metal_group, return_inverse=True)
    at = np.searchsorted(groups, window_group).clip(max=len(groups) - 1)
    met = np.flatnonzero(groups[at] == window_group)
    window, window_first, at = window[met], window_first[met], at[met]

    x0 = int(metal_rects[:, 0].min())
    span = int(metal_rects[:, 0].max()) - x0 + 1
    widest = int((metal_rects[:, 2] - metal_rects[:, 0]).max())
    key = rank * span + (metal_rects[metal, 0] - x0)
    order = np.argsort(key, kind="stable")
    key, metal, metal_first = key[order], metal[order], metal_first[order]
    lo = (windows[window, 0] - widest - x0).clip(0, span)
    hi = (windows[window, 2] - x0).clip(-1, span - 1)
    begin = np.searchsorted(key, at * span + lo, side="left")
    end = np.searchsorted(key, at * span + hi, side="right")
    for rows, offsets in _range_blocks((end - begin).clip(min=0), chunk):
        scanned = begin[rows] + offsets
        yield window[rows], metal[scanned], window_first[rows] | metal_first[scanned]


def kernel_enclosure_candidates(
    via_rects: np.ndarray,
    metal_rects: np.ndarray,
    value: int,
    via_segment: np.ndarray,
    metal_segment: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate (via, metal) pairs: metal MBR overlapping the inflated via.

    The data-parallel form of the bipartite sweep the sequential mode uses:
    :func:`enclosure_candidate_blocks` enumerates near pairs of one segment,
    the exact closed MBR test filters them, and each overlapping pair comes
    out once. A layer holding both very tall and very wide metals degrades
    toward all in-segment pairs (one band, a scan as wide as the widest
    metal) but stays exact.
    """
    pairs = [np.zeros((2, 0), dtype=_INT)]
    if len(via_rects) and len(metal_rects):
        windows = via_rects + np.asarray([-value, -value, value, value], dtype=_INT)
        for vi, mi, first in enclosure_candidate_blocks(
            windows, metal_rects, via_segment, metal_segment
        ):
            keep = first
            for k in range(2):  # closed overlap along x, then y
                keep &= windows[vi, k] <= metal_rects[mi, k + 2]
                keep &= metal_rects[mi, k] <= windows[vi, k + 2]
            pairs.append(np.stack([vi[keep], mi[keep]]))
    return tuple(np.concatenate(pairs, axis=1))


def kernel_enclosure_margins(
    via_rects: np.ndarray, metal_rects: np.ndarray, pair_via: np.ndarray, pair_metal: np.ndarray
) -> np.ndarray:
    """Per-candidate-pair enclosure margins for rectangle geometry.

    ``*_rects`` are ``(n, 4)`` arrays of ``xlo, ylo, xhi, yhi``. A negative
    margin means the metal rectangle does not contain the via.
    """
    if len(pair_via) == 0:
        return np.zeros(0, dtype=_INT)
    v = via_rects[pair_via]
    m = metal_rects[pair_metal]
    margins = np.minimum.reduce(
        [
            v[:, 0] - m[:, 0],
            v[:, 1] - m[:, 1],
            m[:, 2] - v[:, 2],
            m[:, 3] - v[:, 3],
        ]
    )
    return margins.astype(_INT)


def reduce_enclosure_best(
    num_vias: int, pair_via: np.ndarray, margins: np.ndarray
) -> np.ndarray:
    """Best containing-margin per via (-1 where nothing contains it)."""
    best = np.full(num_vias, -1, dtype=_INT)
    containing = margins >= 0
    if containing.any():
        np.maximum.at(best, pair_via[containing], margins[containing])
    return best


# ---------------------------------------------------------------------------
# Corner-spacing kernel (roadmap extension: diagonal corner-to-corner checks)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CornerBuffer:
    """Flattened convex corners: position, exterior-quadrant signs, owner.

    ``segment`` (optional) carries the row-partition id; the segmented
    kernel never pairs corners from different segments.
    """

    x: np.ndarray
    y: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    poly: np.ndarray
    segment: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.x)

    def take(self, order: np.ndarray) -> "CornerBuffer":
        """Reindexed copy (device-side gather)."""
        return CornerBuffer(
            self.x[order],
            self.y[order],
            self.qx[order],
            self.qy[order],
            self.poly[order],
            None if self.segment is None else self.segment[order],
        )


def pack_corners(
    polygons: Sequence[Polygon], poly_ids: Optional[Sequence[int]] = None
) -> CornerBuffer:
    """Pack every polygon's convex corners into flat arrays."""
    from ..checks.corner import ring_corners

    xs: List[int] = []
    ys: List[int] = []
    qxs: List[int] = []
    qys: List[int] = []
    ids: List[int] = []
    for index, polygon in enumerate(polygons):
        pid = poly_ids[index] if poly_ids is not None else index
        for corner in ring_corners(polygon.vertices):
            xs.append(corner.x)
            ys.append(corner.y)
            qxs.append(corner.qx)
            qys.append(corner.qy)
            ids.append(pid)
    return CornerBuffer(
        np.asarray(xs, dtype=_INT),
        np.asarray(ys, dtype=_INT),
        np.asarray(qxs, dtype=_INT),
        np.asarray(qys, dtype=_INT),
        np.asarray(ids, dtype=_INT),
    )


@dataclasses.dataclass
class CornerHits:
    """Violating corner pairs (positions of both corners + floor distance)."""

    ax: np.ndarray
    ay: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    measured: np.ndarray

    def __len__(self) -> int:
        return len(self.measured)

    @classmethod
    def empty(cls) -> "CornerHits":
        z = np.zeros(0, dtype=_INT)
        return cls(z, z, z, z, z)

    @classmethod
    def concatenate(cls, batches: Sequence["CornerHits"]) -> "CornerHits":
        real = [b for b in batches if len(b)]
        if not real:
            return cls.empty()
        return cls(*[np.concatenate([getattr(b, f.name) for b in real])
                     for f in dataclasses.fields(cls)])


def _evaluate_corner_pairs(
    buf: CornerBuffer, a: np.ndarray, b: np.ndarray, threshold: int
) -> CornerHits:
    """Classify candidate corner pairs oriented so ``x[b] >= x[a]``.

    Keeps strictly diagonal (dx > 0, dy != 0), mutually-facing pairs closer
    than ``threshold``. Only pairs within ``threshold`` along both axes are
    squared, so ``dx² + dy²`` stays far inside ``int64`` whatever the
    coordinates. The segmented caller enumerates in-segment pairs only, so
    ``segment`` is not looked at here.
    """
    dx = (buf.x[b] - buf.x[a]).astype(_INT)
    dy = (buf.y[b] - buf.y[a]).astype(_INT)
    keep = (dx > 0) & (dx < threshold) & (dy != 0) & (np.abs(dy) < threshold)
    a, b, dx, dy = a[keep], b[keep], dx[keep], dy[keep]
    d2 = dx * dx + dy * dy
    sy = np.sign(dy)
    mask = (
        (d2 < threshold * threshold)
        & (buf.qx[a] == 1)
        & (buf.qy[a] == sy)
        & (buf.qx[b] == -1)
        & (buf.qy[b] == -sy)
    )
    if not mask.any():
        return CornerHits.empty()
    a, b, d2 = a[mask], b[mask], d2[mask]
    measured = np.sqrt(d2.astype(np.float64)).astype(_INT)
    # Guard against float rounding at perfect squares.
    measured = np.where((measured + 1) ** 2 <= d2, measured + 1, measured)
    measured = np.where(measured ** 2 > d2, measured - 1, measured)
    return CornerHits(buf.x[a], buf.y[a], buf.x[b], buf.y[b], measured)


def kernel_corner_pairs(buf: CornerBuffer, threshold: int, chunk: int = 2048) -> CornerHits:
    """All mutually-facing diagonal corner pairs closer than ``threshold``.

    One simulated thread per corner pair, chunked; pairs are oriented by
    ``x`` so each unordered pair is evaluated once. Distances compare on
    exact squared integers; the reported measurement is the floor of the
    true Euclidean distance (matching the host procedure).
    """
    n = len(buf)
    if n < 2:
        return CornerHits.empty()
    out = []
    all_idx = np.arange(n, dtype=_INT)
    for start in range(0, n, chunk):
        rows = all_idx[start : start + chunk]
        a = np.repeat(rows, n)
        b = np.tile(all_idx, len(rows))
        out.append(_evaluate_corner_pairs(buf, a, b, threshold))
    return CornerHits.concatenate(out)


def kernel_corner_pairs_segmented(
    buf: CornerBuffer, threshold: int, chunk: int = PAIR_BLOCK
) -> CornerHits:
    """All segments' corner pairs in one launch (fused-row execution).

    Corners sort on ``(segment, x)`` and each scans the corners up to
    ``threshold - 1`` to its right in its own segment — a pair further
    apart in ``x`` alone cannot be closer than ``threshold`` — so the work
    follows the rule distance, not the segment size. Hits equal
    :func:`kernel_corner_pairs` run per segment.
    """
    n = len(buf)
    if n < 2:
        return CornerHits.empty()
    if buf.segment is None:
        return kernel_corner_pairs(buf, threshold)
    order, begin, end = _segmented_ranges(buf.x, buf.segment, threshold)
    s = buf.take(order)
    return CornerHits.concatenate(
        [
            _evaluate_corner_pairs(s, a, begin[a] + offsets, threshold)
            for a, offsets in _range_blocks((end - begin).clip(min=0), chunk)
        ]
    )

"""Canonical multi-window region sets for incremental re-checking.

A :class:`RegionSet` is the engine's first-class "where to re-check"
object: one or more closed rects, normalised into the exact disjoint cover
:func:`~repro.spatial.interval_merge.coalesce_rects` produces. Overlap
tests against the set equal overlap tests against the union of the input
windows, so a windowed check filtered by a region set is exactly the full
check filtered to "overlaps any window".

The type is immutable and hashable. It is the region argument of the
in-process windowed procedure (:func:`repro.core.incremental.check_regions`)
and never crosses a process boundary.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence, Tuple, Union

from ..geometry import EMPTY_RECT, Rect
from .interval_merge import coalesce_rects

__all__ = ["RegionSet", "WindowsLike"]

#: Anything coercible into a region set: one rect, many, or a set already.
WindowsLike = Union[Rect, Sequence[Rect], "RegionSet"]


@dataclasses.dataclass(frozen=True)
class RegionSet:
    """A canonical set of closed rect windows (the exact union cover)."""

    rects: Tuple[Rect, ...]

    @classmethod
    def of(cls, windows: WindowsLike) -> "RegionSet":
        """Coerce a rect, an iterable of rects, or a region set."""
        if isinstance(windows, RegionSet):
            return windows
        if isinstance(windows, Rect):
            windows = [windows]
        return cls(tuple(coalesce_rects(list(windows))))

    def __post_init__(self) -> None:
        bounds = EMPTY_RECT
        for rect in self.rects:
            bounds = bounds.union(rect)
        object.__setattr__(self, "_bounds", bounds)

    @property
    def is_empty(self) -> bool:
        return not self.rects

    @property
    def bounds(self) -> Rect:
        """MBR of the whole set (pruning; coloring/overlap gather reach)."""
        return self._bounds  # type: ignore[attr-defined]

    def overlaps(self, rect: Rect) -> bool:
        """True iff ``rect`` shares a point with any window (exact)."""
        if not self._bounds.overlaps(rect):  # type: ignore[attr-defined]
            return False
        return any(r.overlaps(rect) for r in self.rects)

    def inflated(self, margin: int) -> "RegionSet":
        """Every window grown by ``margin``, re-coalesced."""
        if margin == 0:
            return self
        return RegionSet.of([r.inflated(margin) for r in self.rects])

    def union(self, other: "RegionSet") -> "RegionSet":
        return RegionSet.of(list(self.rects) + list(other.rects))

    def __iter__(self) -> Iterable[Rect]:
        return iter(self.rects)

    def __len__(self) -> int:
        return len(self.rects)

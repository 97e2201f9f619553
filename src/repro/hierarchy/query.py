"""Placement algebra for windowed queries over the hierarchy tree (paper §IV-A).

A windowed query descends from a structure and prunes every subtree whose
MBR for the queried layer is disjoint from the window
(:class:`~repro.hierarchy.pruning.SubtreeWindow`); to test a child's own
geometry it needs the window in the child's frame. :func:`pull_back_window`
maps a window back through a placement, :func:`invert` inverts one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..geometry import Rect, Transform


def pull_back_window(placement: Transform, window: Rect) -> Rect:
    """Inverse-map a window into the child's local coordinates.

    A placement's matrix is ``m R`` with ``R`` an integer rotation/mirror, so
    its inverse is the transpose over ``m**2``: exact integers for a rigid
    placement. For magnified placements the exact inverse image may have
    fractional corners; rounding outward only enlarges the window, which is
    always safe for MBR-gathering (a superset of candidates, never a miss).
    """
    if window.is_empty:
        return window
    a, b, c, d = placement._matrix
    xlo, ylo = window.xlo - placement.dx, window.ylo - placement.dy
    xhi, yhi = window.xhi - placement.dx, window.yhi - placement.dy
    x1, y1 = a * xlo + c * ylo, b * xlo + d * ylo
    x2, y2 = a * xhi + c * yhi, b * xhi + d * yhi
    if placement.magnification == 1:
        return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    scale = Fraction(placement.magnification) ** 2
    return Rect(
        math.floor(min(x1, x2) / scale), math.floor(min(y1, y2) / scale),
        math.ceil(max(x1, x2) / scale), math.ceil(max(y1, y2) / scale),
    )


def invert(transform: Transform) -> Transform:
    """Inverse of a placement transform (magnification must be invertible)."""
    # Inverse linear part: undo rotation then mirror; composed directly.
    if transform.mirror_x:
        rotation = transform.rotation % 360
    else:
        rotation = (-transform.rotation) % 360
    if transform.magnification == 1:
        a, b, c, d = transform._matrix  # orthogonal: the inverse is the transpose
        return Transform(
            -(a * transform.dx + c * transform.dy),
            -(b * transform.dx + d * transform.dy),
            rotation,
            transform.mirror_x,
            1,
        )
    inv_mag = 1 / Fraction(transform.magnification)
    linear_inverse = Transform(
        0, 0, rotation, transform.mirror_x, inv_mag if inv_mag.denominator != 1 else int(inv_mag)
    )
    origin = linear_inverse.apply_rect(
        Rect(transform.dx, transform.dy, transform.dx, transform.dy)
    )
    return Transform(
        -origin.xlo,
        -origin.ylo,
        linear_inverse.rotation,
        linear_inverse.mirror_x,
        linear_inverse.magnification,
    )

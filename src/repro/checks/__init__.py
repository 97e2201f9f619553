"""Design-rule check procedures (the paper's algorithm layer).

Each module implements one rule family over explicit geometry; candidate
generation (hierarchy, sweepline, rows, GPU buffers) lives elsewhere so that
every checker shares these exact decision procedures. The geometry they
take is placed rings — ``(vertices, mbr)``, the vertices clockwise
``(x, y)`` pairs — as the hierarchy walk
(:class:`~repro.hierarchy.pruning.SubtreeWindow`) and the ring buffers
hand them out; no procedure needs a ``Polygon`` to read a ring. The cross-
layer procedures judge each ring as its :func:`~repro.checks.base.ring_shape`
(a rectangle's MBR, else a ``Polygon``), and the ``ensures`` predicate gets
the one ``Polygon`` it is defined over.
"""

from .area import check_area
from .base import Violation, ViolationKind, check_pairs, sort_violations, violation_set
from .corner import check_corner_spacing, corner_pair_violations, ring_corners
from .edges import notch_regions, spacing_regions, width_regions
from .enclosure import check_enclosure, enclosure_margin, enclosure_pair_violations
from .ensure import check_ensures
from .rectilinear import check_rectilinear
from .spacing import check_spacing
from .width import check_width

__all__ = [
    "Violation",
    "ViolationKind",
    "check_area",
    "check_corner_spacing",
    "check_enclosure",
    "check_ensures",
    "check_pairs",
    "check_rectilinear",
    "check_spacing",
    "check_width",
    "corner_pair_violations",
    "enclosure_margin",
    "enclosure_pair_violations",
    "notch_regions",
    "ring_corners",
    "sort_violations",
    "spacing_regions",
    "violation_set",
    "width_regions",
]

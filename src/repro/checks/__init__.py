"""Design-rule check procedures (the paper's algorithm layer).

Each module implements one rule family over explicit geometry; candidate
generation (hierarchy, sweepline, rows, GPU buffers) lives elsewhere so that
every checker shares these exact decision procedures.
"""

from .area import check_area, check_polygon_area
from .base import Violation, ViolationKind, sort_violations, violation_set
from .corner import (
    check_corner_spacing,
    convex_corners,
    corner_pair_violations,
)
from .edges import (
    polygon_notch_violations,
    polygon_spacing_violations,
    width_violation_regions,
)
from .enclosure import check_enclosure, enclosure_margin, enclosure_pair_violations
from .ensure import check_ensures
from .rectilinear import check_polygon_rectilinear, check_rectilinear
from .spacing import (
    check_spacing,
    check_spacing_pairs,
    spacing_notch_violations,
    spacing_pair_violations,
)
from .width import check_polygon_width, check_width

__all__ = [
    "Violation",
    "ViolationKind",
    "check_area",
    "check_corner_spacing",
    "check_enclosure",
    "convex_corners",
    "corner_pair_violations",
    "check_ensures",
    "check_polygon_area",
    "check_polygon_rectilinear",
    "check_polygon_width",
    "check_rectilinear",
    "check_spacing",
    "check_spacing_pairs",
    "check_width",
    "enclosure_margin",
    "enclosure_pair_violations",
    "polygon_notch_violations",
    "polygon_spacing_violations",
    "sort_violations",
    "spacing_notch_violations",
    "spacing_pair_violations",
    "violation_set",
    "width_violation_regions",
]

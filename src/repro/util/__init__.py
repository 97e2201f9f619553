"""Program utilities (the paper's infrastructure layer: phase profiler, logger)."""

from .logging import configure, get_logger
from .profile import (
    PHASE_EDGE_CHECKS,
    PHASE_ORDER,
    PHASE_OTHER,
    PHASE_PARTITION,
    PHASE_SWEEPLINE,
    PhaseProfile,
)

__all__ = [
    "PHASE_EDGE_CHECKS",
    "PHASE_ORDER",
    "PHASE_OTHER",
    "PHASE_PARTITION",
    "PHASE_SWEEPLINE",
    "PhaseProfile",
    "configure",
    "get_logger",
]

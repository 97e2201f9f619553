"""Phase profiler behind the paper's Fig. 4 runtime breakdown.

The sequential engine wraps its three stages — adaptive partition, MBR
sweepline (the sort-and-scan and the ring gathers around it), and
edge-to-edge checks — in named phases; :class:`PhaseProfile` accumulates per-phase seconds and renders
the percentage breakdown and an ASCII bar chart like the paper's figure.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

PHASE_PARTITION = "partition"
PHASE_SWEEPLINE = "sweepline"
PHASE_EDGE_CHECKS = "edge-checks"
PHASE_OTHER = "other"

#: Canonical phase order for reports.
PHASE_ORDER = (PHASE_PARTITION, PHASE_SWEEPLINE, PHASE_EDGE_CHECKS, PHASE_OTHER)


class _Phase:
    """One timed entry of a phase: ``with profile.phase(name): ...``."""

    __slots__ = ("_profile", "_name", "_start")

    def __init__(self, profile: "PhaseProfile", name: str) -> None:
        self._profile = profile
        self._name = name

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self._profile.add(self._name, time.perf_counter() - self._start)


class PhaseProfile:
    """Accumulates wall time per named phase."""

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}

    def phase(self, name: str) -> _Phase:
        return _Phase(self, name)

    def add(self, name: str, seconds: float) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def merge(self, other: "PhaseProfile") -> None:
        for name, seconds in other._seconds.items():
            self.add(name, seconds)

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    @property
    def total(self) -> float:
        return sum(self._seconds.values())

    def fractions(self) -> List[Tuple[str, float]]:
        """(phase, fraction-of-total) in canonical order, then extras."""
        total = self.total
        if total == 0.0:
            return []
        names = [n for n in PHASE_ORDER if n in self._seconds]
        names += [n for n in sorted(self._seconds) if n not in PHASE_ORDER]
        return [(name, self._seconds[name] / total) for name in names]

    def breakdown_table(self, *, width: int = 40) -> str:
        """Render the Fig.-4-style breakdown as text with ASCII bars."""
        lines = []
        for name, fraction in self.fractions():
            bar = "#" * max(1, round(fraction * width))
            lines.append(
                f"{name:<12} {self._seconds[name] * 1e3:9.2f} ms "
                f"{fraction * 100:5.1f}%  {bar}"
            )
        lines.append(f"{'total':<12} {self.total * 1e3:9.2f} ms")
        return "\n".join(lines)

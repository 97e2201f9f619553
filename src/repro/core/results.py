"""Check results and reports (interface layer: result output)."""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional

from ..checks.base import Violation
from ..reporting import RuleRows, csv_from_entries, summary_from_entries, totals
from ..util.profile import PhaseProfile
from ..violation_table import ViolationTable
from .rules import Rule


class CheckResult:
    """Outcome of one rule on one layout.

    The violations live in :attr:`table` (the ``violations`` argument), a
    :class:`ViolationTable` in canonical form — deduplicated and
    deterministically ordered, so results from different execution modes
    compare equal. :attr:`violations` is the table's lazy list of
    ``Violation`` objects, built on first read.

    :attr:`stats` is a cumulative snapshot: the counters of the backend
    that ran the rule, as they stood when this rule finished. The snapshots
    grow in the plan's run order (which may differ from the report's deck
    order), so the rule that ran last holds the whole check's totals, and
    summing them across results counts earlier rules' work again. A result
    answered without a backend (cached, windowed, filtered, reloaded)
    carries its own small dict, or the stored one.
    """

    def __init__(
        self,
        rule: Rule,
        violations: ViolationTable,
        seconds: float,
        profile: Optional[PhaseProfile] = None,
        stats: Optional[Dict[str, float]] = None,
    ) -> None:
        self.rule = rule
        self.table = violations
        self.seconds = seconds
        self.profile = profile
        self.stats: Dict[str, float] = {} if stats is None else stats

    def __repr__(self) -> str:
        return f"CheckResult({self.rule.name!r}, {self.table!r}, seconds={self.seconds!r})"

    @property
    def violations(self) -> List[Violation]:
        return self.table.violations()

    @property
    def num_violations(self) -> int:
        return len(self.table)

    @property
    def num_waived(self) -> int:
        return self.table.num_waived

    @property
    def num_blocking(self) -> int:
        """Unwaived violations of an error-severity rule (what fails a check)."""
        if self.rule.severity != "error":
            return 0
        return len(self.table) - self.table.num_waived

    @property
    def passed(self) -> bool:
        return not len(self.table)

    def violation_set(self):
        return frozenset(self.violations)

    def entry(self) -> RuleRows:
        """This result as the renderers of :mod:`repro.reporting` read it."""
        return RuleRows(self.rule.name, self.rule.severity, self.seconds, self.table)

    def header(self) -> Dict[str, Any]:
        """The payload entry of this result without its ``violations``."""
        return {
            "rule": self.rule.name,
            "kind": self.rule.kind.value,
            "layer": self.rule.layer,
            "other_layer": self.rule.other_layer,
            "value": self.rule.value,
            "severity": self.rule.severity,
            "seconds": self.seconds,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }

    def __str__(self) -> str:
        if self.passed:
            status = "PASS"
        else:
            status = f"{self.num_violations} violations"
            if self.num_waived:
                status += f", {self.num_waived} waived"
        return f"{self.rule.name}: {status} ({self.seconds * 1e3:.2f} ms)"


@dataclasses.dataclass
class CheckReport:
    """Outcome of a whole rule deck."""

    layout_name: str
    mode: str
    results: List[CheckResult]

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def total_violations(self) -> int:
        return sum(r.num_violations for r in self.results)

    @property
    def total_waived(self) -> int:
        return sum(r.num_waived for r in self.results)

    @property
    def blocking_violations(self) -> int:
        """Unwaived error-severity violations — what a check exits non-zero on."""
        return sum(r.num_blocking for r in self.results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def ok(self) -> bool:
        """True when nothing blocks: no unwaived error-severity violations."""
        return self.blocking_violations == 0

    def result(self, rule_name: str) -> CheckResult:
        for result in self.results:
            if result.rule.name == rule_name:
                return result
        raise KeyError(f"no result for rule {rule_name!r}")

    def entries(self) -> List[RuleRows]:
        """Per-rule entries, deck order: what every renderer reads."""
        return [result.entry() for result in self.results]

    def header(self) -> Dict[str, Any]:
        """The payload without its ``results``: layout, mode and totals."""
        return {"layout": self.layout_name, "mode": self.mode, **totals(self.entries())}

    def payload(self) -> Dict[str, Any]:
        """The plain-dict report (what :meth:`to_json` serialises).

        Built from the tables, one dict per violation and nothing more. The
        serve daemon writes the same JSON from :meth:`header`,
        :meth:`CheckResult.header` and each table's memoised row text
        (:func:`repro.server.state.encode_reply`); the client loads it back
        into tables and renders CSV/summaries through the same
        :mod:`repro.reporting` functions, so served output is byte-identical
        to local output by construction.
        """
        return {
            **self.header(),
            "results": [
                {**result.header(), "violations": result.table.dicts()}
                for result in self.results
            ],
        }

    def summary(self) -> str:
        return summary_from_entries(self.layout_name, self.mode, self.entries())

    def to_csv(self, *, expand_instances: bool = False) -> str:
        """Machine-readable per-violation dump (RFC 4180 quoting).

        Hierarchical repeats collapse by default: violations identical up
        to translation (the "1 violation x 4096 instances" shape of
        repeated cell placements) emit one exemplar row whose ``instances``
        column carries the count. ``expand_instances=True`` emits every
        marker as its own row.
        """
        return csv_from_entries(self.entries(), expand_instances=expand_instances)

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Machine-readable report with a stable schema and key order.

        Byte-identical across execution backends and job counts for equal
        reports (violations are already canonically ordered; keys sort).
        """
        return json.dumps(self.payload(), indent=indent, sort_keys=True)


def splice_violations(
    cached: ViolationTable, fresh: ViolationTable, regions
) -> ViolationTable:
    """Splice a windowed re-check into a cached violation table.

    Keeps every cached row whose marker does *not* overlap the dirty
    :class:`~repro.spatial.regions.RegionSet` (one keep-mask over the
    table), adds every fresh (windowed) violation, and re-canonicalises.
    Exactness depends on two invariants the engine maintains:

    - the windowed check equals the full check filtered to "marker overlaps
      the region set" (tested across backends), and
    - the region set covers each involved layer's dirty rects inflated by
      the rule's interaction distance, so any violation whose marker misses
      it is byte-identical between the two layout versions.

    The drop mask and the windowed keep filter use the *same* region set,
    so the two slices partition the new layout's violations exactly.
    """
    kept = cached.select(not hit for hit in cached.overlapping(regions.rects))
    return ViolationTable.concat([kept, fresh])

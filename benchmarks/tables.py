"""Paper-style table generation (Tables I and II, Fig. 4).

Each generator measures every (design, rule) cell under all six checker
columns and renders the paper's layout: one row per design x rule, runtimes
in seconds ('< 0.01' under the print resolution), and the closing 'average'
row — per-column geometric means normalized against OpenDRC-parallel,
exactly as the paper computes it ("the runtime is the geometric mean of the
column, as we value all checks equally regardless of their sizes").
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import Engine
from repro.core.rules import Rule
from repro.workloads import asap7

from .common import TABLE_COLUMNS, TABLE_DESIGNS, design


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table; float cells are seconds, printed
    as the paper does ('< 0.01' below the print resolution)."""
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "< 0.01" if value < 0.005 else f"{value:.2f}"
    return str(value)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the paper's aggregation ('we value all checks equally')."""
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def _measure_table(
    rules_of: Dict[str, List[Rule]],
    *,
    designs: Sequence[str] = TABLE_DESIGNS,
) -> Tuple[List[List[object]], Dict[str, float]]:
    """Measure all cells; returns (rows, per-column normalized geomeans)."""
    rows: List[List[object]] = []
    column_samples: Dict[str, List[float]] = {name: [] for name, _ in TABLE_COLUMNS}
    for design_name in designs:
        layout = design(design_name)
        for rule in rules_of[design_name]:
            row: List[object] = [design_name, rule.name]
            for column_name, runner in TABLE_COLUMNS:
                seconds = runner(layout, rule)
                if seconds is None:
                    row.append("-")
                else:
                    row.append(seconds)
                    column_samples[column_name].append(seconds)
            rows.append(row)
    geomeans = {
        name: geometric_mean(samples) for name, samples in column_samples.items()
    }
    base = geomeans.get("ODRC-par") or 1.0
    normalized = {
        name: (value / base if base else 0.0) for name, value in geomeans.items()
    }
    return rows, normalized


def _render(title: str, rows, normalized) -> str:
    headers = ["design", "rule"] + [name for name, _ in TABLE_COLUMNS]
    average = ["average", "(geomean)"] + [
        f"{normalized[name] * 100:.1f}%" if normalized[name] else "-"
        for name, _ in TABLE_COLUMNS
    ]
    return format_table(headers, rows + [average], title=title)


def table1_intra(designs: Sequence[str] = TABLE_DESIGNS) -> str:
    """Table I: intra-polygon checks (width + area on M1/M2/M3)."""
    rules = {name: asap7.intra_deck() for name in designs}
    rows, normalized = _measure_table(rules, designs=designs)
    return _render(
        "Table I: runtime comparisons for intra-polygon design rule checks (s)",
        rows,
        normalized,
    )


def table2_spacing(designs: Sequence[str] = TABLE_DESIGNS) -> str:
    """Table II (left): spacing checks M1.S.1 / M2.S.1 / M3.S.1."""
    rules = {name: asap7.spacing_deck() for name in designs}
    rows, normalized = _measure_table(rules, designs=designs)
    return _render(
        "Table II (spacing): runtime comparisons for inter-polygon checks (s)",
        rows,
        normalized,
    )


def table2_enclosure(designs: Sequence[str] = TABLE_DESIGNS) -> str:
    """Table II (right): enclosure checks V1.M1 / V2.M2 / V2.M3."""
    rules = {name: asap7.enclosure_deck() for name in designs}
    rows, normalized = _measure_table(rules, designs=designs)
    return _render(
        "Table II (enclosure): runtime comparisons for inter-layer checks (s)",
        rows,
        normalized,
    )


def fig4_breakdown(designs: Sequence[str] = TABLE_DESIGNS) -> str:
    """Fig. 4: runtime breakdown of sequential space checks by phase."""
    sections: List[str] = [
        "Fig. 4: runtime breakdown of OpenDRC sequential space checks"
    ]
    for design_name in designs:
        layout = design(design_name)
        engine = Engine(mode="sequential")
        engine.add_rules(asap7.spacing_deck())
        engine.check(layout)
        merged = None
        for profile in engine.last_profiles.values():
            if merged is None:
                merged = profile
            else:
                merged.merge(profile)
        sections.append(f"\n[{design_name}]")
        sections.append(merged.breakdown_table())
    return "\n".join(sections)


def speedup_summary() -> Dict[str, Dict[str, float]]:
    """Headline ratios in the paper's phrasing, for EXPERIMENTS.md.

    Returns, per table, the per-column geomean normalized to OpenDRC-par
    (so 'KL-tile': 12.0 would read 'OpenDRC-par is 12.0x faster than
    KLayout tiling').
    """
    out: Dict[str, Dict[str, float]] = {}
    for label, rules in (
        ("intra", asap7.intra_deck()),
        ("spacing", asap7.spacing_deck()),
        ("enclosure", asap7.enclosure_deck()),
    ):
        _, normalized = _measure_table({name: rules for name in TABLE_DESIGNS})
        out[label] = normalized
    return out

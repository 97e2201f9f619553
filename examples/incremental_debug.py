"""Debug-loop scenario: windowed recheck and marker diffing.

An engineer's edit-check loop: find violations, take the window around the
offending marker, "fix" the layout, re-check only that window, and diff the
marker databases to confirm the fix introduced nothing new.

    python examples/incremental_debug.py
"""

import tempfile
from pathlib import Path

import repro as odrc
from repro.core.incremental import check_window
from repro.core.markers import diff_markers, load_markers, save_markers
from repro.geometry import Polygon
from repro.layout import Layout


def build(gap: int) -> Layout:
    """Two M1 wires ``gap`` apart plus an unrelated clean block."""
    layout = Layout("edit-loop")
    top = layout.new_cell("top")
    top.add_polygon(1, Polygon.from_rect_coords(0, 0, 200, 20))
    top.add_polygon(1, Polygon.from_rect_coords(0, 20 + gap, 200, 40 + gap))
    top.add_polygon(1, Polygon.from_rect_coords(600, 0, 800, 40))
    layout.set_top("top")
    return layout


def main() -> None:
    rule = odrc.rules.layer(1).spacing().greater_than(18).named("M1.S")
    engine = odrc.Engine(mode="sequential")

    # 1. Initial check: the gap of 10 violates the 18 nm rule.
    before = build(gap=10)
    report = engine.check(before, rules=[rule])
    print(report.summary())

    # 2. The window to re-check: the marker's neighbourhood.
    marker = report.results[0].violations[0]
    window = marker.region.inflated(30)
    print(f"marker {marker.region!r}, re-check window {window!r}")

    # 3. Persist the marker database.
    with tempfile.TemporaryDirectory() as tmp:
        before_path = Path(tmp) / "before.json"
        save_markers(report, before_path)

        # 4. "Edit": rebuild with a legal gap, re-check ONLY the window.
        after = build(gap=20)
        windowed = check_window(after, window, rules=[rule])
        print(f"\nwindowed re-check: {windowed.total_violations} violations "
              f"in {window!r}")

        # 5. Full confirmation check + marker diff.
        after_report = engine.check(after, rules=[rule])
        after_path = Path(tmp) / "after.json"
        save_markers(after_report, after_path)
        diff = diff_markers(load_markers(before_path), load_markers(after_path))
        for rule_name, counts in diff.items():
            print(f"diff[{rule_name}]: fixed={counts['fixed']} "
                  f"new={counts['new']} unchanged={counts['unchanged']}")


if __name__ == "__main__":
    main()

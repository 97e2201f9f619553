"""Smoke tests for the benchmark harness itself (on the smallest design)."""

import pytest

from benchmarks import tables
from benchmarks.common import TABLE_COLUMNS, design, verify_agreement
from repro.workloads import asap7


class TestTableGenerators:
    def test_table1_structure(self):
        text = tables.table1_intra(designs=("uart",))
        lines = text.splitlines()
        assert "Table I" in lines[0]
        assert "ODRC-par" in lines[1]
        # title + header + separator + 6 intra rules + average
        assert len(lines) == 4 + 6
        assert lines[-1].startswith("average")
        assert "100.0%" in lines[-1]

    def test_table2_spacing_structure(self):
        text = tables.table2_spacing(designs=("uart",))
        assert text.count("M1.S.1") == 1
        assert "average" in text

    def test_table2_enclosure_structure(self):
        text = tables.table2_enclosure(designs=("uart",))
        assert "V1.M1.EN.1" in text and "average" in text

    def test_xcheck_area_column_empty(self):
        text = tables.table1_intra(designs=("uart",))
        area_rows = [ln for ln in text.splitlines() if ".A.1" in ln]
        assert area_rows and all(" - " in row or row.rstrip().count(" -") for row in area_rows)

    def test_fig4_breakdown_structure(self):
        text = tables.fig4_breakdown(designs=("uart",))
        assert "[uart]" in text
        assert "partition" in text and "sweepline" in text and "edge-checks" in text


class TestTableHelpers:
    def test_format_table_alignment(self):
        text = tables.format_table(
            ["design", "runtime"], [["uart", 0.12], ["jpeg", 3.5]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "design" in lines[1] and "uart" in lines[3]

    def test_seconds_below_print_resolution(self):
        text = tables.format_table(["t"], [[0.004], [0.12]])
        assert text.splitlines()[2:] == ["< 0.01", "  0.12"]

    def test_geometric_mean(self):
        assert tables.geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert tables.geometric_mean([]) == 0.0
        assert tables.geometric_mean([0.0, 4.0]) == pytest.approx(4.0)  # zeros skipped


class TestHarnessInfra:
    def test_design_cache(self):
        assert design("uart") is design("uart")

    def test_columns_in_paper_order(self):
        names = [name for name, _ in TABLE_COLUMNS]
        assert names == ["KL-flat", "KL-deep", "KL-tile", "X-Check", "ODRC-seq", "ODRC-par"]

    def test_verify_agreement_counts(self):
        count = verify_agreement(design("uart"), asap7.spacing_rule(asap7.M2))
        assert count == 0  # benchmark designs are clean

    def test_xcheck_column_returns_none_for_area(self):
        from benchmarks.common import run_xcheck

        assert run_xcheck(design("uart"), asap7.area_rule(asap7.M1)) is None

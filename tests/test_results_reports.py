import pytest

from repro.checks.base import Violation, ViolationKind
from repro.core.results import CheckReport, CheckResult
from repro.core.rules import layer
from repro.geometry import Rect

from .violation_rows import table_of


def violation(x=0, measured=5):
    return Violation(
        kind=ViolationKind.SPACING,
        layer=1,
        region=Rect(x, 0, x + 5, 10),
        measured=measured,
        required=10,
    )


def result(name="R", violations=(), seconds=0.01):
    rule = layer(1).spacing().greater_than(10).named(name)
    return CheckResult(rule=rule, violations=table_of(violations), seconds=seconds)


class TestCheckResult:
    def test_deduplicates_and_sorts(self):
        r = result(violations=[violation(100), violation(0), violation(0)])
        assert r.num_violations == 2
        assert r.violations[0].region.xlo == 0

    def test_passed(self):
        assert result().passed
        assert not result(violations=[violation()]).passed

    def test_str(self):
        assert "PASS" in str(result())
        assert "1 violations" in str(result(violations=[violation()]))

    def test_violation_region_must_be_nonempty(self):
        from repro.geometry import EMPTY_RECT

        with pytest.raises(ValueError):
            Violation(
                kind=ViolationKind.SPACING,
                layer=1,
                region=EMPTY_RECT,
                measured=1,
                required=2,
            )

    def test_violation_deficit_and_str(self):
        v = violation(measured=3)
        assert v.deficit == 7
        assert "3 < 10" in str(v)

    def test_violation_transforms(self):
        from repro.geometry import Transform

        v = violation()
        assert v.translated(10, 0).region.xlo == 10
        assert v.transformed(Transform(dx=5)).region.xlo == 5


class TestCheckReport:
    def test_totals(self):
        report = CheckReport(
            "demo", "sequential",
            [result("A", [violation()]), result("B", [], seconds=0.02)],
        )
        assert report.total_violations == 1
        assert report.total_seconds == pytest.approx(0.03)
        assert not report.passed

    def test_csv_header_only_when_clean(self):
        report = CheckReport("demo", "sequential", [result("A")])
        assert report.to_csv().count("\n") == 0

    def test_csv_other_layer_blank(self):
        report = CheckReport("demo", "sequential", [result("A", [violation()])])
        line = report.to_csv().splitlines()[1]
        assert ",spacing,1,," in line

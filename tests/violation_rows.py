"""Between violation rows and ``Violation`` objects, for the tests.

The check procedures return violation rows (:data:`repro.violation_table.Row`)
and results hold :class:`~repro.violation_table.ViolationTable` objects. Tests
that state expectations as :class:`~repro.checks.base.Violation` objects, or
that map markers through ``Violation.transformed`` as a reference, convert
here.
"""

from typing import Iterable, List

from repro.checks.base import Violation, ViolationKind
from repro.geometry import Rect
from repro.violation_table import KIND_CODES, KINDS, Row, ViolationTable


def violation_row(violation: Violation) -> Row:
    """The row of one violation."""
    other = violation.other_layer
    return (
        violation.layer,
        KIND_CODES[violation.kind.value],
        *violation.region,
        -1 if other is None else other,
        violation.measured,
        violation.required,
    )


def as_violations(rows: Iterable[Row]) -> List[Violation]:
    """Each row as a violation, in order, duplicates kept."""
    return [
        Violation(
            ViolationKind(KINDS[kind]), layer, Rect(xlo, ylo, xhi, yhi), measured, required,
            None if other < 0 else other,
        )
        for layer, kind, xlo, ylo, xhi, yhi, other, measured, required in rows
    ]


def table_of(violations: Iterable[Violation]) -> ViolationTable:
    """The canonical table of some violations, waived flags kept (the first
    occurrence of a duplicate keeps its flag)."""
    violations = list(violations)
    return ViolationTable.from_rows(
        map(violation_row, violations), [v.waived for v in violations]
    )

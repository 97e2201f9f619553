"""Adaptive row-based layout partition (paper §IV-B)."""

from .rows import (
    Row,
    RowPartition,
    margin_for_rule,
    mbr_table,
    partition_rects,
    partition_sorted_baseline,
)

__all__ = [
    "Row",
    "RowPartition",
    "margin_for_rule",
    "mbr_table",
    "partition_rects",
    "partition_sorted_baseline",
]

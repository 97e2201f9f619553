"""Ablation: adaptive row partition on vs off (paper §IV-B, Fig. 4 discussion).

"The adaptive layout partition consumes only around 15% of overall runtime,
but greatly enhances the efficiency of subsequent steps." Rows matter most
on layers whose geometry forms separable bands (M3 routing tracks).

The engine always partitions; "rows-off" sets ``use_rows`` off on the
backend, which only this ablation does.
"""

import pytest

from repro.core import EngineOptions, compile_plan, make_backend
from repro.workloads import asap7

from .common import design

DESIGNS = ("aes", "jpeg")


def check_m3_spacing(layout, mode: str, use_rows: bool):
    """The M3 spacing violations, with the row partition on or off."""
    rule = asap7.spacing_rule(asap7.M3)
    backend = make_backend(compile_plan(layout, [rule], EngineOptions(mode=mode)))
    backend.use_rows = use_rows
    return frozenset(backend.run(rule))


@pytest.mark.parametrize("design_name", DESIGNS)
@pytest.mark.parametrize("mode", ["sequential", "parallel"])
@pytest.mark.parametrize("use_rows", [True, False], ids=["rows-on", "rows-off"])
def test_m3_spacing_partition(benchmark, design_name, mode, use_rows):
    layout = design(design_name)
    violations = benchmark(check_m3_spacing, layout, mode, use_rows)
    assert not violations


def test_partition_same_results_both_ways():
    layout = design("jpeg")
    assert check_m3_spacing(layout, "parallel", True) == check_m3_spacing(
        layout, "parallel", False
    )

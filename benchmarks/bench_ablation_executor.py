"""Ablation: brute-force vs parallel-sweepline GPU executor (paper §IV-E).

OpenDRC selects per task: brute force for small edge counts, the two-kernel
sweepline for large ones. Forcing each executor across all tasks shows the
crossover the adaptive threshold exploits. The threshold is the parallel
backend's ``BRUTE_FORCE_THRESHOLD`` constant; this ablation overrides it.
"""

from unittest import mock

import pytest

from repro.core import Engine, parallel
from repro.workloads import asap7

from .common import design

FORCE_BRUTE = 10 ** 9
FORCE_SWEEP = 0


def check_with_threshold(layout, rule, threshold: int):
    with mock.patch.object(parallel, "BRUTE_FORCE_THRESHOLD", threshold):
        return Engine(mode="parallel").check(layout, rules=[rule])


@pytest.mark.parametrize("design_name", ["ibex", "jpeg"])
@pytest.mark.parametrize(
    "threshold",
    [FORCE_BRUTE, FORCE_SWEEP, parallel.BRUTE_FORCE_THRESHOLD],
    ids=["all-bruteforce", "all-sweepline", "adaptive"],
)
def test_executor_choice_m1_spacing(benchmark, design_name, threshold):
    layout = design(design_name)
    rule = asap7.spacing_rule(asap7.M1)

    report = benchmark(check_with_threshold, layout, rule, threshold)
    assert report.passed


def test_executors_equivalent():
    layout = design("ibex")
    rule = asap7.spacing_rule(asap7.M1)
    results = [
        check_with_threshold(layout, rule, threshold).results[0].violation_set()
        for threshold in (FORCE_BRUTE, FORCE_SWEEP)
    ]
    assert results[0] == results[1]

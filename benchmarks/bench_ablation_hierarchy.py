"""Ablation: hierarchy pruning on vs off (paper §IV-C).

'Off' means checking the flattened layout with the same core algorithms
(sweepline candidate search + edge checks, no memoisation, no per-cell
reuse) — isolating exactly what the hierarchy tree buys. The paper credits
this reuse for the ~37.6x sequential advantage over flat checking.
"""

import pytest

from repro.checks.spacing import check_spacing
from repro.checks.width import check_width
from repro.core import Engine
from repro.layout.flatten import flatten_layer, polygon_rings
from repro.workloads import asap7

from .common import design

DESIGNS = ("ibex", "aes", "jpeg")


@pytest.mark.parametrize("design_name", DESIGNS)
def test_width_with_hierarchy(benchmark, design_name):
    layout = design(design_name)
    rule = asap7.width_rule(asap7.M1)

    def run():
        return Engine(mode="sequential").check(layout, rules=[rule])

    report = benchmark(run)
    result = report.results[0]
    benchmark.extra_info["checks_run"] = result.stats.get("checks_run")
    benchmark.extra_info["checks_reused"] = result.stats.get("checks_reused")


@pytest.mark.parametrize("design_name", DESIGNS)
def test_width_flat_no_hierarchy(benchmark, design_name):
    layout = design(design_name)
    flat = polygon_rings(flatten_layer(layout, asap7.M1))  # flatten outside the timed region

    def run():
        return check_width(flat, asap7.M1, asap7.WIDTH_RULES[asap7.M1])

    violations = benchmark(run)
    assert violations == []


@pytest.mark.parametrize("design_name", DESIGNS)
def test_spacing_with_hierarchy(benchmark, design_name):
    layout = design(design_name)
    rule = asap7.spacing_rule(asap7.M1)

    def run():
        return Engine(mode="sequential").check(layout, rules=[rule])

    benchmark(run)


@pytest.mark.parametrize("design_name", DESIGNS)
def test_spacing_flat_no_hierarchy(benchmark, design_name):
    layout = design(design_name)
    flat = polygon_rings(flatten_layer(layout, asap7.M1))

    def run():
        return check_spacing(flat, asap7.M1, asap7.SPACING_RULES[asap7.M1])

    violations = benchmark(run)
    assert violations == []


def test_hierarchy_reuse_counters():
    """The pruning statistics show definition-level reuse happening."""
    layout = design("jpeg")
    engine = Engine(mode="sequential")
    report = engine.check(layout, rules=[asap7.width_rule(asap7.M1)])
    stats = report.results[0].stats
    assert stats["checks_reused"] > 10 * stats["checks_run"]

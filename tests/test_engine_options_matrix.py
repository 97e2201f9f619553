"""Option-matrix coverage: every engine configuration yields the same
violations on a dirty design (configuration changes performance, never
results)."""

import pytest

from repro.core import Engine, EngineOptions, parallel
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations


@pytest.fixture(scope="module")
def dirty():
    layout = build_design("uart")
    inject_violations(
        layout,
        InjectionPlan(spacing=3, width=2, area=2, enclosure=2),
        layer=asap7.M2,
        via_layer=asap7.V2,
        metal_layer=asap7.M2,
        seed=99,
    )
    deck = [
        asap7.spacing_rule(asap7.M2),
        asap7.width_rule(asap7.M2),
        asap7.area_rule(asap7.M2),
        asap7.enclosure_rule(asap7.V2, asap7.M2),
    ]
    reference = Engine(mode="sequential").check(layout, rules=deck)
    return layout, deck, reference


#: (mode, overrides): the parallel backend's lane threshold and row
#: partition are constants the ablation benches override the same way.
CONFIGS = {
    "seq-rows": ("sequential", []),
    "par-rows": ("parallel", []),
    "par-norows": ("parallel", [(parallel.ParallelBackend, "use_rows", False)]),
    "par-sweep-only": ("parallel", [(parallel, "BRUTE_FORCE_THRESHOLD", 0)]),
    "par-brute-only": ("parallel", [(parallel, "BRUTE_FORCE_THRESHOLD", 10 ** 9)]),
    "par-norows-sweep-only": (
        "parallel",
        [
            (parallel.ParallelBackend, "use_rows", False),
            (parallel, "BRUTE_FORCE_THRESHOLD", 0),
        ],
    ),
    "par-norows-brute-only": (
        "parallel",
        [
            (parallel.ParallelBackend, "use_rows", False),
            (parallel, "BRUTE_FORCE_THRESHOLD", 10 ** 9),
        ],
    ),
}


@pytest.mark.parametrize("config", list(CONFIGS))
def test_configuration_invariance(dirty, config, monkeypatch):
    layout, deck, reference = dirty
    mode, overrides = CONFIGS[config]
    for target, name, value in overrides:
        monkeypatch.setattr(target, name, value)
    report = Engine(mode=mode).check(layout, rules=deck)
    for got, want in zip(report.results, reference.results):
        assert got.violation_set() == want.violation_set(), got.rule.name


def test_stats_present_in_results(dirty):
    layout, deck, _ = dirty
    report = Engine(mode="parallel").check(layout, rules=deck)
    spacing_stats = report.result("M2.S.1").stats
    assert "kernels_bruteforce" in spacing_stats or "kernels_sweepline" in spacing_stats


def test_reports_deterministic(dirty):
    layout, deck, _ = dirty
    a = Engine(mode="parallel").check(layout, rules=deck)
    b = Engine(mode="parallel").check(layout, rules=deck)
    assert a.to_csv() == b.to_csv()


def test_options_have_three_fields():
    """Mode, cache directory, cache switch: nothing else."""
    fields = [f.name for f in EngineOptions.__dataclass_fields__.values()]
    assert fields == ["mode", "cache_dir", "use_cache"]


@pytest.mark.parametrize("mode", ["multiproc", "windowed"])
def test_unknown_mode_rejected(mode):
    with pytest.raises(ValueError, match="unknown mode"):
        EngineOptions(mode=mode)

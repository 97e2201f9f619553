"""Fault injection: a corrupt pack-store entry never changes a report.

The contract under test: whenever ``packstore_corrupt`` fires, the store
drops the entry, rebuilds it cold and rewrites it; the check completes and
its report is byte-identical to the fault-free run. Only the
``cache_corrupt`` counter reveals that recovery happened.
"""

import pytest

from repro.core import Engine, EngineOptions, PackStore, ReportCache
from repro.core.rules import layer
from repro.util import faults
from repro.util.faults import FaultPlan, FaultSpecError

from .via_layouts import random_via_layout


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """No fault plan leaks into or out of any test in this module."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.clear()
    yield
    faults.clear()


def small_deck():
    """One shape rule plus both row kinds (pair + enclosure)."""
    return [
        layer(1).width().greater_than(8).named("W"),
        layer(1).spacing().greater_than(7).named("S"),
        layer(2).enclosure(layer(1)).greater_than(3).named("ENC"),
    ]


# ---------------------------------------------------------------------------
# Spec parsing and the plan mechanics
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_empty_specs_mean_no_faults(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse(" ; ") is None

    def test_single_site_defaults_to_one_shot(self):
        plan = FaultPlan.parse("packstore_corrupt")
        assert [d.site for d in plan.directives] == ["packstore_corrupt"]
        assert plan.directives[0].times == 1

    def test_multi_clause_spec_with_parameters(self):
        plan = FaultPlan.parse(
            "packstore_corrupt:times=2,skip=1;packstore_corrupt:times=3"
        )
        first, second = plan.directives
        assert (first.site, first.times, first.skip) == ("packstore_corrupt", 2, 1)
        assert (second.site, second.times) == ("packstore_corrupt", 3)

    @pytest.mark.parametrize(
        "spec",
        [
            "explode",                          # unknown site
            "worker_raise:times=1",             # unknown site (no workers)
            "packstore_corrupt:count=1",        # unknown parameter
            "packstore_corrupt:rule=S",         # unknown parameter (no rule filter)
            "packstore_corrupt:times",          # missing value
            "packstore_corrupt:times=soon",     # non-integer value
            "packstore_corrupt:p=1.5",          # probability out of range
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_spec_error_is_a_value_error(self):
        assert issubclass(FaultSpecError, ValueError)

    def test_times_budget_bounds_firing(self):
        plan = FaultPlan.parse("packstore_corrupt:times=2")
        fired = [plan.should_fire(faults.PACKSTORE_CORRUPT) for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_skip_lets_early_opportunities_pass(self):
        plan = FaultPlan.parse("packstore_corrupt:skip=2,times=1")
        fired = [plan.should_fire(faults.PACKSTORE_CORRUPT) for _ in range(4)]
        assert fired == [False, False, True, False]

    def test_probability_draws_are_seeded_and_repeatable(self):
        spec = "packstore_corrupt:p=0.5,seed=7,times=100"

        def draws():
            directive = FaultPlan.parse(spec).directives[0]
            return [directive.consult() for _ in range(64)]

        first, second = draws(), draws()
        assert first == second
        assert any(first) and not all(first)


class TestInstallation:
    def test_install_is_idempotent_by_spec(self):
        plan = faults.install("packstore_corrupt:times=1")
        assert faults.should_fire(faults.PACKSTORE_CORRUPT)
        # Re-installing the same spec must keep the consumed budget (a
        # second check with the same options must not re-arm fired faults).
        assert faults.install("packstore_corrupt:times=1") is plan
        assert not faults.should_fire(faults.PACKSTORE_CORRUPT)

    def test_installing_a_new_spec_replaces_the_plan(self):
        faults.install("packstore_corrupt:times=1")
        assert faults.should_fire(faults.PACKSTORE_CORRUPT)
        faults.install("packstore_corrupt:times=2")
        assert faults.should_fire(faults.PACKSTORE_CORRUPT)

    def test_install_none_clears(self):
        faults.install("packstore_corrupt")
        assert faults.install(None) is None
        assert not faults.should_fire(faults.PACKSTORE_CORRUPT)

    def test_options_beat_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "packstore_corrupt:times=2")
        opts = EngineOptions(faults="packstore_corrupt")
        assert faults.resolve_spec(opts) == "packstore_corrupt"
        assert faults.resolve_spec(EngineOptions()) == "packstore_corrupt:times=2"


class TestOptionsValidation:
    def test_malformed_fault_spec_fails_at_options_creation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            EngineOptions(faults="explode:times=1")


class TestPackStoreCorruption:
    def test_corrupt_entry_heals_and_counts(self, tmp_path):
        layout = random_via_layout(104, instances=60)
        deck = small_deck()
        options = lambda: EngineOptions(  # noqa: E731
            mode="parallel",
            cache_dir=str(tmp_path),
            faults="packstore_corrupt:times=1",
        )
        # The stored report would answer a repeat before the pack store —
        # where the fault fires — is read, so it is dropped between runs.
        reports = ReportCache(PackStore(str(tmp_path)))
        cold = Engine(options=options()).check(layout, rules=deck)
        reports.clear()
        # The cold run sees no existing entries, so the fault budget is
        # still live; the warm run's first store read hits it.
        warm = Engine(options=options()).check(layout, rules=deck)
        reports.clear()
        assert warm.to_csv() == cold.to_csv()
        assert warm.results[-1].stats["cache_corrupt"] >= 1
        # The corrupted entry was dropped and rewritten: a third run (no
        # faults) is clean.
        healed = Engine(
            options=EngineOptions(mode="parallel", cache_dir=str(tmp_path))
        ).check(layout, rules=deck)
        assert healed.to_csv() == cold.to_csv()
        assert healed.results[-1].stats["cache_corrupt"] == 0

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_corruption_in_every_mode(self, tmp_path, mode):
        layout = random_via_layout(105, instances=60)
        deck = small_deck()
        baseline = Engine(mode="sequential").check(layout, rules=deck)
        options = dict(mode=mode, cache_dir=str(tmp_path))
        cold = Engine(options=EngineOptions(**options)).check(layout, rules=deck)
        assert cold.to_csv() == baseline.to_csv()
        ReportCache(PackStore(str(tmp_path))).clear()
        warm = Engine(
            options=EngineOptions(**options, faults="packstore_corrupt:times=1")
        ).check(layout, rules=deck)
        assert warm.to_csv() == baseline.to_csv()
        # Only the parallel mode reads the pack store; a sequential check
        # has no entry to corrupt.
        assert warm.results[-1].stats["cache_corrupt"] == (1 if mode == "parallel" else 0)

import time

import pytest

from repro.util import (
    PHASE_EDGE_CHECKS,
    PHASE_PARTITION,
    PHASE_SWEEPLINE,
    PhaseProfile,
    get_logger,
)


class TestPhaseProfile:
    def test_phases_accumulate(self):
        profile = PhaseProfile()
        with profile.phase(PHASE_PARTITION):
            time.sleep(0.001)
        with profile.phase(PHASE_PARTITION):
            time.sleep(0.001)
        profile.add(PHASE_EDGE_CHECKS, 0.01)
        assert profile.seconds(PHASE_PARTITION) >= 0.002
        assert profile.total >= 0.012

    def test_fractions_ordered_and_sum_to_one(self):
        profile = PhaseProfile()
        profile.add(PHASE_EDGE_CHECKS, 0.05)
        profile.add(PHASE_PARTITION, 0.015)
        profile.add(PHASE_SWEEPLINE, 0.035)
        fractions = profile.fractions()
        assert [name for name, _ in fractions] == [
            PHASE_PARTITION,
            PHASE_SWEEPLINE,
            PHASE_EDGE_CHECKS,
        ]
        assert sum(f for _, f in fractions) == pytest.approx(1.0)

    def test_merge(self):
        a = PhaseProfile()
        a.add(PHASE_PARTITION, 0.01)
        b = PhaseProfile()
        b.add(PHASE_PARTITION, 0.02)
        a.merge(b)
        assert a.seconds(PHASE_PARTITION) == pytest.approx(0.03)

    def test_breakdown_table_renders(self):
        profile = PhaseProfile()
        profile.add(PHASE_PARTITION, 0.15)
        profile.add(PHASE_SWEEPLINE, 0.35)
        profile.add(PHASE_EDGE_CHECKS, 0.50)
        text = profile.breakdown_table()
        assert "partition" in text and "#" in text and "total" in text

    def test_empty_profile(self):
        assert PhaseProfile().fractions() == []


class TestLogger:
    def test_logger(self):
        assert get_logger("bench").name == "repro.bench"

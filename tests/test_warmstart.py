"""Warm-start equivalence: a store-served run must be invisible in the report.

Cold run, warm run, `--no-cache` run, and every backend must produce the
byte-identical CSV; only the stats may differ (and must: the warm run shows
cache hits and exactly zero pack seconds).
"""

import os

import pytest

from repro.core import Engine, EngineOptions, PackStore, ReportCache, check_window
from repro.core.rules import layer
from repro.geometry import Rect
from repro.workloads import (
    InjectionPlan,
    asap7,
    build_design,
    inject_violations,
)


def deck():
    """Spacing + corner + enclosure: every store-backed pack kind."""
    rules = asap7.spacing_deck() + asap7.enclosure_deck()
    rules.append(layer(asap7.M2).corner_spacing().greater_than(10).named("CS.M2"))
    return rules


@pytest.fixture(scope="module")
def dirty_layout():
    layout = build_design("uart", "ci")
    inject_violations(layout, InjectionPlan(spacing=3), layer=asap7.M2, seed=7)
    return layout


def run(layout, *, mode, cache_dir=None, use_cache=True):
    options = EngineOptions(mode=mode, cache_dir=cache_dir, use_cache=use_cache)
    with Engine(options=options) as engine:
        return engine.check(layout, rules=deck())


def forget_reports(cache_dir):
    """Make the next check of ``cache_dir`` compute again: the report store
    would answer it before the pack store — the subject here — is touched."""
    ReportCache(PackStore(cache_dir)).clear()


class TestWarmEqualsCold:
    def test_parallel_warm_equals_cold_with_hit_stats(self, dirty_layout, tmp_path):
        cache = str(tmp_path)
        cold = run(dirty_layout, mode="parallel", cache_dir=cache)
        cold_stats = cold.results[-1].stats
        assert cold_stats["cache_misses"] > 0
        assert cold_stats["cache_hits"] == 0
        assert cold_stats["cache_bytes_written"] > 0

        forget_reports(cache)
        warm = run(dirty_layout, mode="parallel", cache_dir=cache)
        warm_stats = warm.results[-1].stats
        assert warm.to_csv() == cold.to_csv()
        assert warm_stats["cache_hits"] > 0
        assert warm_stats["cache_misses"] == 0
        assert warm_stats["pack_seconds"] == 0.0
        assert warm_stats["cache_bytes_read"] > 0

    def test_no_cache_restores_the_cold_path(self, dirty_layout, tmp_path):
        cache = str(tmp_path)
        run(dirty_layout, mode="parallel", cache_dir=cache)  # populate
        off = run(dirty_layout, mode="parallel", cache_dir=cache, use_cache=False)
        stats = off.results[-1].stats
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0
        baseline = run(dirty_layout, mode="parallel")
        assert off.to_csv() == baseline.to_csv()

    def test_all_backends_agree_warm_and_cold(self, dirty_layout, tmp_path):
        cache = str(tmp_path)
        baseline = run(dirty_layout, mode="sequential").to_csv()
        for mode in ("sequential", "parallel"):
            forget_reports(cache)
            cold = run(dirty_layout, mode=mode, cache_dir=cache)
            forget_reports(cache)
            warm = run(dirty_layout, mode=mode, cache_dir=cache)
            stored = run(dirty_layout, mode=mode, cache_dir=cache)
            assert cold.to_csv() == baseline, mode
            assert warm.to_csv() == baseline, mode
            assert stored.to_csv() == baseline, mode  # answered by the report store

    def test_sequential_stores_only_the_report(self, dirty_layout, tmp_path):
        """The row partition is recomputed, not stored: a sequential check
        leaves a report and no pack, and computing again reads none."""
        cache = str(tmp_path)
        cold = run(dirty_layout, mode="sequential", cache_dir=cache)
        assert list(tmp_path.glob("reports/*.json"))
        assert not list(tmp_path.rglob("*.pack"))
        forget_reports(cache)
        again = run(dirty_layout, mode="sequential", cache_dir=cache)
        assert again.to_csv() == cold.to_csv()
        stats = again.results[-1].stats
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0

    def test_windowed_backend_with_cache(self, dirty_layout, tmp_path):
        cache = str(tmp_path)
        window = Rect(0, 0, 4000, 4000)
        cold = check_window(
            dirty_layout, window, rules=deck(),
            options=EngineOptions(cache_dir=cache),
        )
        warm = check_window(
            dirty_layout, window, rules=deck(),
            options=EngineOptions(cache_dir=cache),
        )
        assert warm.to_csv() == cold.to_csv()

    def test_geometry_edit_invalidates_between_runs(self, tmp_path):
        cache = str(tmp_path)
        layout = build_design("uart", "ci")
        run(layout, mode="parallel", cache_dir=cache)
        edited = build_design("uart", "ci")
        inject_violations(edited, InjectionPlan(spacing=2), layer=asap7.M2, seed=3)
        cold_truth = run(edited, mode="parallel").to_csv()
        cached = run(edited, mode="parallel", cache_dir=cache)
        # Entries for the edited layer miss; the report is still exact.
        assert cached.to_csv() == cold_truth
        assert cached.results[-1].stats["cache_misses"] > 0


class TestPersistedCounters:
    def test_counters_accumulate_across_engine_runs(self, dirty_layout, tmp_path):
        cache = str(tmp_path)
        run(dirty_layout, mode="parallel", cache_dir=cache)
        forget_reports(cache)
        run(dirty_layout, mode="parallel", cache_dir=cache)
        totals = PackStore(cache).persisted_counters()
        assert totals.get("misses", 0) > 0  # cold run
        assert totals.get("hits", 0) > 0  # warm run
        assert totals.get("bytes_written", 0) > 0


class TestCacheCli:
    @pytest.fixture()
    def uart_gds(self, tmp_path):
        from repro.gdsii import write
        from repro.layout import gdsii_from_layout

        path = tmp_path / "uart.gds"
        write(gdsii_from_layout(build_design("uart")), path)
        return str(path)

    def test_check_twice_then_stats_then_clear(self, uart_gds, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        for _ in range(2):
            main(["check", uart_gds, "--top", "top", "--mode", "parallel",
                  "--cache-dir", cache, "--csv"])
        first, second = capsys.readouterr().out.split("rule,", 2)[1:]
        assert first == second  # byte-identical CSV cold vs warm

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "hits:" in out
        assert "entries: 0" not in out

        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_stats_counts_report_cache(self, uart_gds, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "rcache")
        main(["check", uart_gds, "--top", "top", "--cache-dir", cache, "--csv"])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "report entries: 1" in out
        assert "report bytes:" in out
        assert "report bytes: 0" not in out

    def test_clear_states_what_it_clears(self, uart_gds, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "ccache")
        main(["check", uart_gds, "--top", "top", "--cache-dir", cache, "--csv"])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "pack artifacts" in out and "cached report" in out
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out and "report entries: 0" in out

    def test_cache_dir_env_var(self, uart_gds, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        cache = str(tmp_path / "envcache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache)
        main(["check", uart_gds, "--top", "top", "--mode", "parallel"])
        assert os.path.isdir(cache)
        assert main(["cache", "stats"]) == 0
        assert "entries:" in capsys.readouterr().out

    def test_no_cache_flag_skips_the_store(self, uart_gds, tmp_path, monkeypatch):
        from repro.cli import main

        cache = str(tmp_path / "nocache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache)
        main(["check", uart_gds, "--top", "top", "--mode", "parallel", "--no-cache"])
        assert not os.path.isdir(cache)

    def test_cache_without_dir_errors(self, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["cache", "stats"])

    def test_check_window_accepts_cache_args(self, uart_gds, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "wcache")
        code = main(["check-window", uart_gds, "0", "0", "2000", "2000",
                     "--top", "top", "--cache-dir", cache, "--csv"])
        assert code in (0, 1)
        # Windowed gathering checks flat polygons and never packs, so the
        # store stays empty — the flags must still be accepted and harmless.
        out = capsys.readouterr().out
        assert "rule," in out

import sys

import pytest

from repro.cli import main
from repro.gdsii import write
from repro.layout import gdsii_from_layout
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations

from .test_rules_dsl import UNUSABLE_DECKS, write_unusable_deck


@pytest.fixture()
def uart_gds(tmp_path):
    path = tmp_path / "uart.gds"
    write(gdsii_from_layout(build_design("uart")), path)
    return str(path)


@pytest.fixture()
def dirty_gds(tmp_path):
    layout = build_design("uart")
    inject_violations(layout, InjectionPlan(spacing=2), layer=asap7.M2, seed=1)
    path = tmp_path / "dirty.gds"
    write(gdsii_from_layout(layout), path)
    return str(path)


def assert_input_error(argv, capsys, message):
    """``main(argv)`` exits 2 with one stderr line containing ``message``."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


class TestCheckCommand:
    def test_clean_design_exit_zero(self, uart_gds, capsys):
        code = main(["check", uart_gds, "--top", "top"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "M1.S.1" in out

    def test_dirty_design_exit_one(self, dirty_gds, capsys):
        code = main(["check", dirty_gds, "--top", "top"])
        assert code == 1
        assert "violations" in capsys.readouterr().out

    def test_parallel_mode(self, uart_gds):
        assert main(["check", uart_gds, "--top", "top", "--mode", "parallel"]) == 0

    @pytest.mark.parametrize("command", ["check", "stats"])
    def test_several_roots_without_top_names_the_flag(self, uart_gds, command, capsys):
        """Synthesized streams hold a leaf macro beside ``top``: no traceback,
        an exit that says which flag to pass and which cells qualify."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, uart_gds])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err
        assert "--top" in message and "top" in message.split("(")[1]

    def test_csv_output(self, dirty_gds, capsys):
        main(["check", dirty_gds, "--top", "top", "--format", "csv"])
        out = capsys.readouterr().out
        assert out.startswith("rule,kind")
        assert "spacing" in out

    def test_breakdown_output(self, uart_gds, capsys):
        main(["check", uart_gds, "--top", "top", "--breakdown"])
        out = capsys.readouterr().out
        assert "edge-checks" in out
        names, values = out.splitlines()[-1].split(": ")
        assert names == (
            "checks_run / checks_reused / checks_refreshed / pairs_considered / pairs_pruned_mbr"
        )
        assert all(v.isdigit() for v in values.split(" / ")) and values.count("/") == 4

    def test_custom_deck(self, uart_gds, tmp_path, capsys):
        deck = tmp_path / "deck.py"
        deck.write_text(
            "from repro.core.rules import layer\n"
            "RULES = [layer(19).width().greater_than(18).named('ONLY')]\n"
        )
        assert main(["check", uart_gds, "--top", "top", "--deck", str(deck)]) == 0
        out = capsys.readouterr().out
        assert "ONLY" in out and "M1.S.1" not in out

    def test_bad_deck_rejected(self, uart_gds, tmp_path, capsys):
        deck = tmp_path / "deck.py"
        deck.write_text("RULES = 'not a list'\n")
        assert_input_error(
            ["check", uart_gds, "--top", "top", "--deck", str(deck)],
            capsys,
            "must define RULES",
        )


class TestInputErrors:
    """An input a command cannot use is bad usage, not a DRC result: exit 2
    (argparse's status), one stderr line naming the path, no traceback.
    Exit 1 means violations, so a CI gate would read a typo as a failure."""

    @staticmethod
    def argv(command, path):
        return {
            "check": ["check", path],
            "check-window": ["check-window", path, "0", "0", "10", "10"],
            "recheck": ["recheck", path, path],
            "stats": ["stats", path],
            "serve": ["serve", "--port", "0"],
        }[command]

    @pytest.fixture()
    def bad_inputs(self, tmp_path, uart_gds):
        malformed = tmp_path / "malformed.gds"
        with open(uart_gds, "rb") as handle:
            malformed.write_bytes(handle.read()[:200])
        return {
            "missing": (str(tmp_path / "nosuch.gds"), []),
            "malformed": (str(malformed), []),
            "unknown top": (uart_gds, ["--top", "nosuch"]),
        }

    @pytest.mark.parametrize("error", ["missing", "malformed", "unknown top"])
    @pytest.mark.parametrize("command", ["check", "check-window", "recheck", "stats"])
    def test_exits_two_naming_the_path(self, command, error, bad_inputs, capsys):
        path, extra = bad_inputs[error]
        with pytest.raises(SystemExit) as exit_info:
            main(self.argv(command, path) + extra)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("case", list(UNUSABLE_DECKS))
    @pytest.mark.parametrize("command", ["check", "check-window", "recheck", "serve"])
    def test_unusable_deck_exits_two(self, command, case, tmp_path, uart_gds, capsys):
        """``serve`` loads its deck before it listens: a bad one exits 2
        instead of failing every request."""
        deck, fragment = write_unusable_deck(tmp_path, case)
        top = [] if command == "serve" else ["--top", "top"]
        argv = self.argv(command, uart_gds) + top + ["--deck", deck]
        assert_input_error(argv, capsys, fragment)

    def test_the_process_exits_two(self, tmp_path):
        import os
        import subprocess

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        missing = str(tmp_path / "nosuch.gds")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "check", missing],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert done.returncode == 2
        assert missing in done.stderr and "Traceback" not in done.stderr

    #: name -> (argv with {gds}/{tmp} placeholders, env, stderr fragment):
    #: every input error other than an unusable GDS file.
    USAGE_ERRORS = {
        "empty window": (
            ["check-window", "{gds}", "10", "10", "0", "0", "--top", "top"],
            {},
            "window 10 10 0 0 must be non-empty",
        ),
        "deck without RULES": (
            ["check", "{gds}", "--top", "top", "--deck", "{tmp}/no_rules.py"],
            {},
            "must define RULES",
        ),
        "missing waivers": (
            ["check", "{gds}", "--top", "top", "--waivers", "{tmp}/nosuch.json"],
            {},
            "cannot read waiver file",
        ),
        "diff of a missing database": (
            ["diff", "{tmp}/nosuch.json", "{tmp}/new.json"],
            {},
            "cannot read marker database",
        ),
        "waive a missing database": (
            ["waive", "{tmp}/nosuch.json", "-o", "{tmp}/w.json"],
            {},
            "cannot read marker database",
        ),
        "cache stats without a directory": (
            ["cache", "stats"], {"REPRO_CACHE_DIR": None}, "no cache directory"
        ),
        "unreachable server": (
            ["check", "{gds}", "--top", "top", "--server", "http://127.0.0.1:1"],
            {},
            "cannot reach",
        ),
    }

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_errors_exit_two(self, case, tmp_path, uart_gds, capsys, monkeypatch):
        """Exit 1 is reserved for violations and ``repro diff`` regressions:
        a typo in a CI gate must not read as a DRC result."""
        argv, env, message = self.USAGE_ERRORS[case]
        (tmp_path / "no_rules.py").write_text("DECK = []\n")
        for name, value in env.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        argv = [arg.format(gds=uart_gds, tmp=tmp_path) for arg in argv]
        assert_input_error(argv, capsys, message)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "parallel", "--breakdown", "--no-cache"],
            ["--mode", "sequential"],
            ["--breakdown"],
            ["--cache-dir", "cache"],
            ["--no-cache"],
            ["--deck", "deck.py"],
        ],
        ids=" ".join,
    )
    def test_served_check_rejects_engine_flags(self, uart_gds, capsys, flags):
        """The daemon runs its own engine: a flag it would silently drop is
        refused before any request is made (the server URL is never dialled)."""
        named = [flag for flag in flags if flag.startswith("-")]
        assert_input_error(
            ["check", uart_gds, "--top", "top", "--server", "http://127.0.0.1:1", *flags],
            capsys,
            f"{', '.join(named)} not supported with --server",
        )

    def test_failed_verification_exits_two(self, uart_gds, capsys, monkeypatch):
        def diverging(*args, **kwargs):
            raise AssertionError("spliced recheck report diverges")

        monkeypatch.setattr("repro.core.incremental.recheck", diverging)
        assert_input_error(
            ["recheck", uart_gds, uart_gds, "--top", "top", "--verify"],
            capsys,
            "recheck verification failed",
        )


class TestBackendFlags:
    @pytest.mark.parametrize("flag", ["--fuse-rows", "--no-fuse-rows"])
    def test_fuse_rows_flags_rejected(self, uart_gds, capsys, flag):
        """The per-row path and its knob are gone: argparse refuses both."""
        with pytest.raises(SystemExit) as exit_info:
            main(["check", uart_gds, "--top", "top", "--mode", "parallel", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--no-rows"], ["--num-streams", "3"], ["--brute-force-threshold", "0"]],
        ids=lambda flag: flag[0],
    )
    def test_ablation_knobs_rejected(self, uart_gds, capsys, flag):
        """Row partition and lane threshold are constants of the parallel
        backend, which issues on one implicit stream: argparse refuses the
        old flags."""
        with pytest.raises(SystemExit) as exit_info:
            main(["check", uart_gds, "--top", "top", "--mode", "parallel", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCheckWindowCommand:
    def test_clean_window_exit_zero(self, uart_gds, capsys):
        code = main(["check-window", uart_gds, "0", "0", "2000", "2000", "--top", "top"])
        assert code == 0
        out = capsys.readouterr().out
        assert "windowed" in out and "PASS" in out

    def test_dirty_window_exit_one(self, dirty_gds, capsys):
        code = main([
            "check-window", dirty_gds,
            "-100000", "-100000", "100000", "100000", "--top", "top",
        ])
        assert code == 1
        assert "violations" in capsys.readouterr().out

    def test_window_away_from_violations_passes(self, dirty_gds):
        # The injected scratch strip sits above the core rows.
        assert main([
            "check-window", dirty_gds, "0", "0", "400", "400", "--top", "top",
        ]) == 0

    def test_empty_window_rejected(self, uart_gds, capsys):
        assert_input_error(
            ["check-window", uart_gds, "100", "100", "50", "900", "--top", "top"],
            capsys,
            "window 100 100 50 900 must be non-empty",
        )

    def test_csv_output(self, dirty_gds, capsys):
        main([
            "check-window", dirty_gds,
            "-100000", "-100000", "100000", "100000", "--top", "top", "--format", "csv",
        ])
        assert capsys.readouterr().out.startswith("rule,kind")


class TestStatsCommand:
    def test_stats(self, uart_gds, capsys):
        assert main(["stats", uart_gds, "--top", "top"]) == 0
        out = capsys.readouterr().out
        assert "cells" in out and "flat polygons" in out


class TestSynthCommand:
    def test_synth_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "ibex.gds"
        assert main(["synth", "ibex", str(out_path)]) == 0
        assert out_path.exists() and out_path.stat().st_size > 1000
        assert main(["stats", str(out_path), "--top", "top"]) == 0

    def test_unknown_design_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synth", "riscv", str(tmp_path / "x.gds")])


class TestMarkerOutput:
    def test_output_marker_database(self, dirty_gds, tmp_path, capsys):
        out = tmp_path / "markers.json"
        code = main(["check", dirty_gds, "--top", "top", "--output", str(out)])
        assert code == 1 and out.exists()
        from repro.core.markers import load_markers

        report = load_markers(out)
        assert report.total_violations == 2


class TestWaiverFlag:
    def test_waivers_applied(self, dirty_gds, tmp_path, capsys):
        import json

        waiver_path = tmp_path / "waivers.json"
        waiver_path.write_text(json.dumps({
            "format": 1,
            "waivers": [{"rule": "*", "region": [-10**9, -10**9, 10**9, 10**9]}],
        }))
        code = main(["check", dirty_gds, "--top", "top", "--waivers", str(waiver_path)])
        assert code == 0  # everything waived -> clean exit


def assert_argparse_error(argv, capsys, message):
    """``main(argv)`` exits 2 with argparse's usage line and ``message``."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro") and message in err
    assert "Traceback" not in err


class TestNoJobsFlag:
    @pytest.mark.parametrize("command", ["check", "check-window", "recheck", "serve"])
    def test_jobs_is_an_argparse_error(self, uart_gds, capsys, command):
        """There is one in-process parallel engine: no worker count to give."""
        files = {
            "check": [uart_gds],
            "check-window": [uart_gds, "0", "0", "10", "10"],
            "recheck": [uart_gds, uart_gds],
            "serve": [],
        }
        assert_argparse_error(
            [command, *files[command], "--jobs", "2"],
            capsys,
            "unrecognized arguments: --jobs 2",
        )


class TestNoCsvAlias:
    @pytest.mark.parametrize("command", ["check", "check-window", "recheck"])
    def test_csv_is_an_argparse_error(self, uart_gds, capsys, command):
        """CSV output has one spelling, ``--format csv``."""
        files = {
            "check": [uart_gds],
            "check-window": [uart_gds, "0", "0", "10", "10"],
            "recheck": [uart_gds, uart_gds],
        }
        assert_argparse_error(
            [command, *files[command], "--csv"], capsys, "unrecognized arguments: --csv"
        )


class TestServeFlags:
    def test_max_concurrent_is_an_argparse_error(self, capsys):
        """One engine lock serves every request: no admission cap to give."""
        assert_argparse_error(
            ["serve", "--max-concurrent", "2"],
            capsys,
            "unrecognized arguments: --max-concurrent 2",
        )

    def test_negative_report_lru_is_an_argparse_error(self, capsys):
        assert_argparse_error(
            ["serve", "--report-lru", "-1"],
            capsys,
            "argument --report-lru: must be at least 0, got -1",
        )


@pytest.fixture()
def edited_gds_pair(tmp_path):
    """(old, new) GDS paths: new has one extra skinny M1 wire in the top."""
    from repro.geometry import Polygon, Rect

    old = build_design("uart")
    old_path = tmp_path / "old.gds"
    write(gdsii_from_layout(old), old_path)
    new = build_design("uart")
    new.top_cell().add_polygon(19, Polygon.from_rect(Rect(40, 40, 52, 90)))
    new_path = tmp_path / "new.gds"
    write(gdsii_from_layout(new), new_path)
    return str(old_path), str(new_path)


class TestJsonFormat:
    def test_check_format_json(self, dirty_gds, capsys):
        import json

        main(["check", dirty_gds, "--top", "top", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_violations"] > 0
        assert {"rule", "kind", "layer", "violations"} <= set(
            payload["results"][0]
        )

    def test_check_window_format_json(self, dirty_gds, capsys):
        import json

        main([
            "check-window", dirty_gds,
            "-100000", "-100000", "100000", "100000",
            "--top", "top", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "windowed"


class TestMultiWindowCli:
    def test_extra_windows_coalesce(self, dirty_gds, capsys):
        code = main([
            "check-window", dirty_gds, "0", "0", "400", "400",
            "--window", "0", "300", "400", "700",
            "--top", "top",
        ])
        assert code == 0  # both windows inside the clean core
        assert "windowed" in capsys.readouterr().out

    def test_extra_window_reaches_violations(self, dirty_gds):
        code = main([
            "check-window", dirty_gds, "0", "0", "400", "400",
            "--window", "-100000", "-100000", "100000", "100000",
            "--top", "top",
        ])
        assert code == 1

    def test_empty_extra_window_rejected(self, uart_gds, capsys):
        assert_input_error(
            [
                "check-window", uart_gds, "0", "0", "400", "400",
                "--window", "100", "100", "50", "900",
                "--top", "top",
            ],
            capsys,
            "window 100 100 50 900 must be non-empty",
        )


class TestReportStore:
    """``repro check`` asks the report store of its cache directory first."""

    def test_second_check_is_answered_by_the_store(
        self, dirty_gds, tmp_path, capsys, monkeypatch
    ):
        argv = ["check", dirty_gds, "--top", "top", "--cache-dir", str(tmp_path / "D")]
        assert main(argv + ["--breakdown"]) == 1
        out = capsys.readouterr().out
        assert "source:" not in out and "edge-checks" in out
        # From here on loading the backend fails: a hit must not need it.
        monkeypatch.setitem(sys.modules, "repro.core.sequential", None)
        assert main(argv + ["--breakdown"]) == 1
        hit = capsys.readouterr().out
        summary, source = hit[: -len("source: report-cache\n")], hit.splitlines()[-1]
        assert source == "source: report-cache" and "edge-checks" not in hit
        assert out.startswith(summary)  # the stored report, seconds and all

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_hit_is_byte_identical_whoever_produced_the_report(
        self, dirty_gds, tmp_path, capsys, mode
    ):
        main(["check", dirty_gds, "--top", "top", "--no-cache", "--format", "csv"])
        oracle = capsys.readouterr().out
        argv = [
            "check", dirty_gds, "--top", "top", "--cache-dir", str(tmp_path / "D"),
            "--mode", mode,
        ]
        for fmt in (["--format", "csv"], ["--format", "csv"], ["--format", "csv", "--expand-instances"]):
            assert main(argv + fmt) == 1
        miss, hit, expanded = capsys.readouterr().out.split("rule,kind")[1:]
        assert "rule,kind" + miss == "rule,kind" + hit == oracle
        main(["check", dirty_gds, "--top", "top", "--no-cache", "--format", "csv",
              "--expand-instances"])
        assert "rule,kind" + expanded == capsys.readouterr().out

    @pytest.mark.parametrize("no_cache", [False, True])
    def test_without_a_store_nothing_is_kept(
        self, dirty_gds, tmp_path, capsys, monkeypatch, no_cache
    ):
        if no_cache:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "D"))
        else:
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        argv = ["check", dirty_gds, "--top", "top"] + (["--no-cache"] if no_cache else [])
        for _ in range(2):
            assert main(argv) == 1
            assert "source:" not in capsys.readouterr().out
        assert list(tmp_path.rglob("reports")) == []
        assert not (tmp_path / "D").exists()

    def test_check_window_filters_a_stored_full_report(
        self, dirty_gds, tmp_path, capsys, monkeypatch
    ):
        cache = str(tmp_path / "D")
        window = ["check-window", dirty_gds, "0", "0", "100000", "100000",
                  "--top", "top", "--format", "csv"]
        assert main(window + ["--no-cache"]) == 1
        computed = capsys.readouterr().out
        main(["check", dirty_gds, "--top", "top", "--cache-dir", cache])
        capsys.readouterr()
        monkeypatch.setattr(
            "repro.core.incremental.check_regions",
            lambda *args, **kwargs: pytest.fail("the windowed procedure ran"),
        )
        assert main(window + ["--cache-dir", cache]) == 1
        assert capsys.readouterr().out == computed
        # A clipped report is never stored: still one entry, the full one.
        main(["cache", "stats", "--cache-dir", cache])
        assert "report entries: 1" in capsys.readouterr().out


class TestRecheckCommand:
    def test_recheck_with_cache(self, edited_gds_pair, tmp_path, capsys):
        old, new = edited_gds_pair
        cache = str(tmp_path / "cache")
        assert main(["check", old, "--top", "top", "--cache-dir", cache]) == 0
        capsys.readouterr()
        code = main([
            "recheck", old, new, "--top", "top", "--cache-dir", cache,
            "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 1  # the skinny wire violates width/area
        assert "baseline: report cache" in out
        assert "windowed" in out
        assert "verify: spliced report matches the cold full check" in out

    def test_recheck_builds_each_versions_tree_once(
        self, edited_gds_pair, tmp_path, capsys, built_trees
    ):
        old, new = edited_gds_pair
        cache = str(tmp_path / "cache")
        main(["check", old, "--top", "top", "--cache-dir", cache])
        built_trees.clear()
        main(["recheck", old, new, "--top", "top", "--cache-dir", cache])
        assert "baseline: report cache" in capsys.readouterr().out
        # One tree per version, shared by the diff, the digests and the plan.
        assert len(built_trees) == 2 and built_trees[0] is not built_trees[1]

    def test_recheck_cold_without_cache(self, edited_gds_pair, capsys):
        old, new = edited_gds_pair
        code = main(["recheck", old, new, "--top", "top"])
        out = capsys.readouterr().out
        assert code == 1
        assert "cold" in out

    def test_recheck_clean_pair(self, uart_gds, capsys):
        code = main(["recheck", uart_gds, uart_gds, "--top", "top"])
        out = capsys.readouterr().out
        # identical files: with no cache the baseline is computed cold
        assert "diff: clean" in out
        assert code == 0

    def test_recheck_csv_format(self, edited_gds_pair, tmp_path, capsys):
        old, new = edited_gds_pair
        cache = str(tmp_path / "cache")
        main(["check", old, "--top", "top", "--cache-dir", cache])
        capsys.readouterr()
        main([
            "recheck", old, new, "--top", "top", "--cache-dir", cache,
            "--format", "csv",
        ])
        out = capsys.readouterr().out
        assert out.startswith("rule,kind")

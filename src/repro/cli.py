"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``check <file.gds>``
    Run a rule deck on a GDSII file and print the report (optionally CSV
    markers). The default deck is the ASAP7-like benchmark deck; a custom
    deck is any Python file defining ``RULES = [...]`` with DSL rules.
``check-window <file.gds> <x1> <y1> <x2> <y2>``
    Incremental check: run the deck only on the given window (dbu
    coordinates), in-process. Repeatable ``--window X1 Y1 X2 Y2`` options
    add further windows; overlapping windows coalesce and each violation
    reports once.
``recheck <old.gds> <new.gds>``
    True incremental re-check: diff the two versions by per-layer
    geometry digests, re-check each rule only in its dirty regions, and
    splice into the previous report (from the report store —
    ``--cache-dir`` / ``$REPRO_CACHE_DIR`` — or recomputed cold).
    ``--verify`` additionally runs the cold full check and asserts the
    spliced report matches byte-for-byte.
``diff <old.json> <new.json>``
    Regression-diff two marker databases: per-rule fixed / new / unchanged
    counts, exit code 1 iff new *unwaived* violations appeared — the
    CI-gateable "did my edit make DRC worse" predicate.
``waive <markers.json> -o <waivers.json>``
    Generate geometry-anchored waiver records (rule name + content digest
    of the violating marker) from a marker database, optionally filtered
    by ``--rule`` / ``--region`` and stamped with a ``--reason``.
``violations <markers.json>``
    Filter a marker database by severity / rule / bbox — the same code
    path ``GET /sessions/<id>/violations`` serves, so local and served
    listings are byte-identical.
``stats <file.gds>``
    Print layout statistics (cells, instances, flat polygons, hierarchy).
``synth <design> <out.gds>``
    Synthesize one of the six benchmark designs to a GDSII file.
``cache stats|clear``
    Inspect or empty the report store's disk back (``reports/`` under
    ``--cache-dir`` or ``$REPRO_CACHE_DIR``). With a cache directory,
    ``check``/``check-window``/``recheck`` ask the report store first (a
    second ``check`` of unchanged bytes is a digest and a load, and says
    ``source: report-cache``); ``--no-cache`` disables it.
``serve``
    Run the resident DRC daemon: one warm engine (the report store stays
    hot) and one deck (``--deck``, loaded at start) serving JSON over HTTP.
    ``check <file.gds> --server URL`` routes a check through a running
    daemon instead of paying a cold start.

Exit status: 0 clean, 1 violations (or ``repro diff`` regressions), 2 an
input or usage error (one ``repro: error:`` line on stderr), ``128 +
signum`` when a signal stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
from typing import List, Optional

# Only what building the parser needs is imported here; every subcommand
# imports its own machinery (the engine, the default deck, the design
# generators, the daemon) when it runs, and the engine loads a backend's
# modules only for the mode chosen.
from .core.plan import EngineOptions
from .core.rules import Rule, load_deck_file
from .errors import RuleError


def _load_deck(path: Optional[str]) -> List[Rule]:
    if path is None:
        from .workloads import asap7

        return asap7.full_deck()
    try:
        return load_deck_file(path)
    except RuleError as error:
        raise _input_error(str(error)) from None


def _input_error(message: str) -> SystemExit:
    """One stderr line and argparse's status for bad usage, 2: an input the
    command cannot use is not a DRC result (1 means violations found)."""
    print(f"repro: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _read(path: str, top: Optional[str], previous=None):
    """``path``'s layout with its top pinned; structures whose bytes
    ``previous`` (the other version of a recheck) was read from are carried
    over from it."""
    from .errors import ReproError
    from .gdsii import read_layout

    try:
        layout = read_layout(path, previous=previous)
        if top:
            layout.set_top(top)
    except (OSError, ReproError) as error:
        raise _input_error(f"{path}: {error}") from None
    if not top:
        roots = sorted(cell.name for cell in layout.root_cells())
        if len(roots) > 1:
            raise _input_error(
                f"{path} has {len(roots)} root cells ({', '.join(roots)}); "
                "pick the one to check with --top"
            )
    return layout


def _engine_options(args: argparse.Namespace) -> EngineOptions:
    """The options every engine-running subcommand builds from its flags
    (``--mode`` exists on some subcommands only; elsewhere: sequential)."""
    return EngineOptions(
        mode=getattr(args, "mode", None) or "sequential",
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


def _int_at_least(minimum: int):
    """An argparse ``type`` admitting integers >= ``minimum`` (exit 2 else)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _print_report(report, args: argparse.Namespace) -> None:
    if args.format == "csv":
        print(
            report.to_csv(
                expand_instances=getattr(args, "expand_instances", False)
            )
        )
    elif args.format == "json":
        print(report.to_json())
    else:
        print(report.summary())


def _apply_waiver_file(report, path: str):
    """A copy of ``report`` with the waiver file's matches marked waived.

    Waivers are presentation-time: engines, caches, and splice baselines
    always hold the raw report; this is the single choke point every CLI
    command funnels through just before printing / persisting markers, so
    waived flags land in the output (and in ``--output`` databases) without
    ever entering the cached state.
    """
    from .core.markers import MarkerError, apply_waivers, load_waivers

    try:
        return apply_waivers(report, load_waivers(path))
    except OSError as error:
        raise _input_error(f"cannot read waiver file {path}: {error}") from None
    except (MarkerError, ValueError) as error:
        raise _input_error(f"bad waiver file {path}: {error}") from None


@contextlib.contextmanager
def _graceful_sigterm():
    """Turn SIGTERM into a normal stack unwind for the scope's duration.

    The default SIGTERM action would kill the process before any
    ``with Engine(...)`` block closes its backends, and with no exit status
    of ``128 + signum``. Only effective on the main thread (signal API
    restriction).
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _served_check(args: argparse.Namespace) -> int:
    """Route ``repro check`` through a running ``repro serve`` daemon.

    ``--waivers`` applies *client-side*, on the fetched report payload,
    through the same :mod:`repro.reporting` functions the local path uses —
    the daemon stays waiver-oblivious (its caches and coalescing keys only
    ever see raw reports) and the output is byte-identical to a local
    waived run of the same deck.
    """
    from .client import (
        ClientError,
        ServeClient,
        apply_waivers_payload,
        report_json_summary,
        report_json_to_csv,
    )

    if args.output:
        raise _input_error(
            "--output is not supported with --server; fetch the JSON report "
            "and post-process it locally"
        )
    engine_flags = [
        flag
        for flag, given in (
            ("--deck", args.deck is not None),
            ("--mode", args.mode is not None),
            ("--breakdown", args.breakdown),
            ("--cache-dir", args.cache_dir is not None),
            ("--no-cache", args.no_cache),
        )
        if given
    ]
    if engine_flags:
        raise _input_error(
            f"{', '.join(engine_flags)} not supported with --server; the "
            "daemon runs the check with its own deck and engine options"
        )
    waivers = None
    if args.waivers:
        from .core.markers import MarkerError, load_waivers

        try:
            waivers = load_waivers(args.waivers)
        except OSError as error:
            raise _input_error(
                f"cannot read waiver file {args.waivers}: {error}"
            ) from None
        except (MarkerError, ValueError) as error:
            raise _input_error(
                f"bad waiver file {args.waivers}: {error}"
            ) from None
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as error:
        raise _input_error(f"cannot read {args.file}: {error}") from None
    try:
        with ServeClient(args.server) as client:
            info = client.create_session(data=data, top=args.top)
            response = client.check(info["session"])
    except ClientError as error:
        raise _input_error(str(error)) from None
    payload = response["report"]
    if waivers is not None:
        from .reporting import WaiverFormatError

        try:
            payload = apply_waivers_payload(payload, waivers)
        except WaiverFormatError as error:
            raise _input_error(
                f"bad waiver file {args.waivers}: {error}"
            ) from None
    if args.format == "csv":
        print(
            report_json_to_csv(
                payload, expand_instances=args.expand_instances
            )
        )
    elif args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report_json_summary(payload))
        meta = response["meta"]
        print(
            f"served by {args.server}: {meta['source']}, "
            f"{meta['seconds'] * 1e3:.2f} ms round trip"
        )
    return 0 if payload["blocking_violations"] == 0 else 1


def cmd_check(args: argparse.Namespace) -> int:
    if args.server:
        return _served_check(args)
    from .core.engine import Engine

    options = _engine_options(args)
    layout = _read(args.file, args.top)
    with _graceful_sigterm(), Engine(options=options) as engine:
        report = engine.check(layout, rules=_load_deck(args.deck))
    if args.waivers:
        report = _apply_waiver_file(report, args.waivers)
    if args.output:
        from .core.markers import save_markers

        save_markers(report, args.output)
        print(f"wrote marker database: {args.output}")
    _print_report(report, args)
    if args.format == "summary":
        # This engine's store was asked once, by the check above.
        if engine.reports is not None and engine.reports.hits:
            print("source: report-cache")
        elif args.breakdown:
            for name, profile in engine.last_profiles.items():
                print(f"\n[{name}]")
                print(profile.breakdown_table())
            # Sequential stats accumulate down the deck: the last rule's are
            # the run's totals (which pairs were swept, pruned, memoised).
            stats = report.results[-1].stats if report.results else {}
            names = (
                "checks_run",
                "checks_reused",
                "checks_refreshed",
                "pairs_considered",
                "pairs_pruned_mbr",
            )
            if all(name in stats for name in names):
                values = " / ".join(str(stats[name]) for name in names)
                print(f"\n{' / '.join(names)}: {values}")
    return 0 if report.ok else 1


def cmd_check_window(args: argparse.Namespace) -> int:
    from .core.incremental import check_window
    from .geometry import Rect

    options = _engine_options(args)
    layout = _read(args.file, args.top)
    windows = []
    for coords in [(args.x1, args.y1, args.x2, args.y2)] + (args.window or []):
        window = Rect(*coords)
        if window.is_empty:
            typed = " ".join(str(c) for c in coords)
            raise _input_error(
                f"window {typed} must be non-empty (x1 <= x2 and y1 <= y2)"
            )
        windows.append(window)
    report = check_window(
        layout, windows, rules=_load_deck(args.deck), options=options
    )
    if args.waivers:
        report = _apply_waiver_file(report, args.waivers)
    _print_report(report, args)
    return 0 if report.ok else 1


def cmd_recheck(args: argparse.Namespace) -> int:
    from .core.incremental import recheck

    options = _engine_options(args)
    old = _read(args.old, args.top)
    new = _read(args.new, args.top, previous=old)
    try:
        outcome = recheck(
            old, new, rules=_load_deck(args.deck), options=options,
            verify=args.verify,
        )
    except AssertionError as error:
        raise _input_error(f"recheck verification failed: {error}") from None
    report = outcome.report
    if args.waivers:
        # Applied *after* the splice: the spliced/cached baselines stay raw
        # (so chained rechecks and --verify compare raw against raw), and
        # because waived flags are excluded from violation identity the
        # waived spliced report is byte-identical to a waived cold check.
        report = _apply_waiver_file(report, args.waivers)
    diff = outcome.diff
    if args.format == "summary":
        if diff.is_clean:
            print("diff: clean (all per-layer geometry digests match)")
        elif diff.full:
            print("diff: not localisable (full re-check)")
        else:
            for layer in diff.dirty_layers():
                regions = diff.dirty[layer]
                print(
                    f"diff: layer {layer} dirty in {len(regions)} region(s), "
                    f"bounds {regions.bounds}"
                )
        counts = {}
        for kind in outcome.disposition.values():
            counts[kind] = counts.get(kind, 0) + 1
        source = "report cache" if outcome.cache_hit else (
            "cold full check" if "cold" in counts else "in-memory baseline"
        )
        print(
            "recheck: "
            + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
            + f" (baseline: {source})"
        )
        if args.verify:
            print("verify: spliced report matches the cold full check")
    _print_report(report, args)
    return 0 if report.ok else 1


def _load_marker_db(path: str):
    """Load a marker database for the lifecycle commands (exit 2 on error)."""
    from .core.markers import MarkerError, load_markers

    try:
        return load_markers(path)
    except OSError as error:
        raise _input_error(f"cannot read marker database {path}: {error}") from None
    except (MarkerError, ValueError) as error:
        raise _input_error(f"bad marker database {path}: {error}") from None


def cmd_diff(args: argparse.Namespace) -> int:
    """Regression diff of two marker databases (``repro diff old new``).

    Exit code 1 iff the new report introduces violations that no waiver
    covers — "did my edit make DRC worse" as a CI-gateable predicate.
    Fixed violations and pre-existing (unchanged) ones never fail the
    diff; neither do new violations that arrive already waived.
    """
    from .core.markers import diff_markers

    before = _load_marker_db(args.old)
    after = _load_marker_db(args.new)
    diff = diff_markers(before, after)
    totals = {"fixed": 0, "new": 0, "new_waived": 0, "unchanged": 0}
    for counts in diff.values():
        for key in totals:
            totals[key] += counts[key]
    regressions = totals["new"] - totals["new_waived"]
    if args.format == "json":
        print(
            json.dumps(
                {"rules": diff, "totals": totals, "regressions": regressions},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"marker diff: {args.old} -> {args.new}")
        for name in sorted(diff):
            counts = diff[name]
            line = (
                f"  {name}: {counts['fixed']} fixed, {counts['new']} new, "
                f"{counts['unchanged']} unchanged"
            )
            if counts["new_waived"]:
                line += f" ({counts['new_waived']} of the new waived)"
            print(line)
        print(
            f"total: {totals['fixed']} fixed, {totals['new']} new, "
            f"{totals['unchanged']} unchanged"
        )
        if regressions:
            print(f"REGRESSION: {regressions} new unwaived violation(s)")
        else:
            print("no regressions")
    return 1 if regressions else 0


def cmd_waive(args: argparse.Namespace) -> int:
    """Generate geometry-anchored waivers from a marker database.

    Each selected violation becomes a ``{"rule", "marker"}`` record whose
    ``marker`` is the content digest of the violating geometry — the
    persistent anchor: it survives any edit that does not change the
    violation itself, unlike a region box that drifts when layout moves.
    """
    from .core.markers import save_waivers, waivers_for
    from .geometry import Rect

    report = _load_marker_db(args.markers)
    region = None
    if args.region:
        region = Rect(*args.region)
        if region.is_empty:
            raise _input_error(f"--region {args.region} must be non-empty")
    records = waivers_for(
        report,
        rules=args.rule or None,
        region=region,
        reason=args.reason,
    )
    save_waivers(records, args.output)
    print(f"wrote {len(records)} waiver(s): {args.output}")
    return 0


def cmd_violations(args: argparse.Namespace) -> int:
    """Filter a marker database like ``GET /sessions/<id>/violations``.

    Runs :func:`repro.reporting.filter_entries` — the filter the serve
    daemon's ``/violations`` endpoint runs, behind the same bbox check
    (:func:`repro.reporting.check_bbox`) — on a local marker database, so
    local and served filtered listings are byte-identical (modulo the
    served session envelope) and reject the same boxes.
    """
    from .reporting import SEVERITIES, FilterError, check_bbox, filter_violations

    if args.severity and args.severity not in SEVERITIES:
        raise _input_error(
            f"--severity must be one of {SEVERITIES}, got {args.severity!r}"
        )
    if args.bbox is not None:
        try:
            check_bbox(args.bbox)
        except FilterError as error:
            raise _input_error(str(error)) from None
    report = _load_marker_db(args.markers)
    known = {result.rule.name for result in report.results}
    wanted = set(args.rule or [])
    if wanted and not wanted <= known:
        raise _input_error(
            f"unknown rule(s): {sorted(wanted - known)}; database rules: "
            f"{sorted(known)}"
        )
    filtered = filter_violations(
        report.entries(),
        severity=args.severity,
        rules=args.rule or None,
        bbox=args.bbox,
        include_waived=not args.no_waived,
    )
    print(json.dumps(filtered, indent=2, sort_keys=True))
    return 0


def _resolve_cache_root(args: argparse.Namespace) -> str:
    from .core.packstore import CACHE_DIR_ENV

    root = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    if not root:
        raise _input_error(
            "no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR"
        )
    return root


def cmd_cache(args: argparse.Namespace) -> int:
    from .core.packstore import PackStore
    from .core.reportcache import ReportCache

    store = PackStore(_resolve_cache_root(args))
    reports = ReportCache(store)
    if args.action == "clear":
        print(f"removed {reports.clear()} cached report(s) from {reports.root}")
        return 0
    report_entries = reports.entries()
    print(f"cache: {store.root}")
    print(f"report entries: {len(report_entries)}")
    print(f"report bytes: {sum(nbytes for _, nbytes in report_entries)}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import ServerState
    from .server.http import serve as run_serve

    try:
        state = ServerState(
            options=_engine_options(args),
            deck_path=args.deck,
            report_lru=args.report_lru,
        )
    except RuleError as error:
        raise _input_error(str(error)) from None
    return run_serve(state, args.host, args.port)


def cmd_stats(args: argparse.Namespace) -> int:
    from .layout import compute_stats

    layout = _read(args.file, args.top)
    stats = compute_stats(layout)
    print(stats.summary())
    return 0


def _design_name(value: str) -> str:
    """argparse ``type`` for a design name: the choices load when one is parsed."""
    from .workloads.designs import DESIGN_NAMES

    if value not in DESIGN_NAMES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(sorted(DESIGN_NAMES))})"
        )
    return value


def cmd_synth(args: argparse.Namespace) -> int:
    from .gdsii import write
    from .layout import compute_stats, gdsii_from_layout
    from .workloads.designs import build_design

    layout = build_design(args.design, args.scale)
    write(gdsii_from_layout(layout), args.out)
    print(f"wrote {args.out}: {compute_stats(layout).summary()}")
    return 0


def _add_format_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["summary", "csv", "json"],
        default="summary",
        help="report output format (default: summary)",
    )
    parser.add_argument(
        "--expand-instances",
        action="store_true",
        help="CSV: one row per marker instead of collapsing hierarchical "
        "repeats to an exemplar row with an instance count",
    )


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR; finished reports "
        "are reused across runs when set)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any configured cache directory: no report store (pure "
        "cold path)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OpenDRC-reproduction design rule checker"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a rule deck on a GDSII file")
    check.add_argument("file")
    check.add_argument("--deck", help="Python file defining RULES = [...]")
    check.add_argument(
        "--mode",
        choices=["sequential", "parallel"],
        default=None,
        help="execution backend (default: sequential)",
    )
    check.add_argument("--top", help="top cell name (default: inferred)")
    check.add_argument(
        "--server",
        metavar="URL",
        help="route the check through a running `repro serve` daemon "
        "(uploads the GDS bytes; the daemon checks them against its own "
        "deck, so --deck is refused)",
    )
    _add_format_args(check)
    check.add_argument("--output", help="write a JSON marker database")
    check.add_argument("--waivers", help="apply a JSON waiver file before reporting")
    check.add_argument(
        "--breakdown", action="store_true", help="print per-rule phase breakdowns"
    )
    _add_cache_args(check)
    check.set_defaults(func=cmd_check)

    window = sub.add_parser(
        "check-window", help="incrementally check one window of a GDSII file"
    )
    window.add_argument("file")
    for coord in ("x1", "y1", "x2", "y2"):
        window.add_argument(coord, type=int, help=f"window {coord} (dbu)")
    window.add_argument(
        "--window",
        action="append",
        nargs=4,
        type=int,
        metavar=("X1", "Y1", "X2", "Y2"),
        help="additional window (repeatable; overlapping windows coalesce)",
    )
    window.add_argument("--deck", help="Python file defining RULES = [...]")
    window.add_argument("--top", help="top cell name (default: inferred)")
    window.add_argument(
        "--waivers", help="apply a JSON waiver file before reporting"
    )
    _add_format_args(window)
    _add_cache_args(window)
    window.set_defaults(func=cmd_check_window)

    re_check = sub.add_parser(
        "recheck", help="incrementally re-check an edited GDSII file"
    )
    re_check.add_argument("old", help="previous version (the checked baseline)")
    re_check.add_argument("new", help="edited version to re-check")
    re_check.add_argument("--deck", help="Python file defining RULES = [...]")
    re_check.add_argument("--top", help="top cell name (default: inferred)")
    re_check.add_argument(
        "--waivers",
        help="apply a JSON waiver file to the spliced report before "
        "reporting (baselines and caches stay raw)",
    )
    _add_format_args(re_check)
    re_check.add_argument(
        "--verify",
        action="store_true",
        help="also run the cold full check and assert the spliced report "
        "matches byte-for-byte",
    )
    _add_cache_args(re_check)
    re_check.set_defaults(func=cmd_recheck)

    diff = sub.add_parser(
        "diff",
        help="regression-diff two marker databases (exit 1 on new "
        "unwaived violations)",
    )
    diff.add_argument("old", help="baseline marker database (JSON)")
    diff.add_argument("new", help="new marker database (JSON)")
    diff.add_argument(
        "--format",
        choices=["summary", "json"],
        default="summary",
        help="diff output format (default: summary)",
    )
    diff.set_defaults(func=cmd_diff)

    waive = sub.add_parser(
        "waive",
        help="generate geometry-anchored waivers from a marker database",
    )
    waive.add_argument("markers", help="marker database (JSON) to waive from")
    waive.add_argument(
        "-o", "--output", required=True, help="waiver file to write (JSON)"
    )
    waive.add_argument(
        "--rule",
        action="append",
        metavar="NAME",
        help="only waive violations of this rule (repeatable; default: all)",
    )
    waive.add_argument(
        "--region",
        nargs=4,
        type=int,
        metavar=("X1", "Y1", "X2", "Y2"),
        help="only waive violations whose marker overlaps this box (dbu)",
    )
    waive.add_argument("--reason", help="free-text reason carried on each record")
    waive.set_defaults(func=cmd_waive)

    violations = sub.add_parser(
        "violations",
        help="filter a marker database like GET /sessions/<id>/violations",
    )
    violations.add_argument("markers", help="marker database (JSON) to filter")
    violations.add_argument(
        "--severity", choices=["error", "warning"], default=None
    )
    violations.add_argument(
        "--rule",
        action="append",
        metavar="NAME",
        help="only this rule's violations (repeatable)",
    )
    violations.add_argument(
        "--bbox",
        nargs=4,
        type=int,
        metavar=("X1", "Y1", "X2", "Y2"),
        help="only violations whose marker overlaps this box (dbu)",
    )
    violations.add_argument(
        "--no-waived",
        action="store_true",
        help="drop waived violations from the listing",
    )
    violations.set_defaults(func=cmd_violations)

    cache = sub.add_parser(
        "cache", help="inspect or clear the stored reports of a cache directory"
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache.set_defaults(func=cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the resident DRC daemon (JSON over HTTP)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8787, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--deck",
        help="the one deck every session is checked against, loaded at "
        "start: a Python file defining RULES = [...] (default: the ASAP7 "
        "benchmark deck); requests cannot name another",
    )
    serve.add_argument(
        "--mode",
        choices=["sequential", "parallel"],
        default=None,
        help="execution backend (default: sequential)",
    )
    serve.add_argument(
        "--report-lru",
        type=_int_at_least(0),
        default=64,
        metavar="N",
        help="reports the report store keeps in memory (default 64; 0 keeps "
        "none, so every request computes or reads the cache directory)",
    )
    _add_cache_args(serve)
    serve.set_defaults(func=cmd_serve)

    stats = sub.add_parser("stats", help="print layout statistics")
    stats.add_argument("file")
    stats.add_argument("--top")
    stats.set_defaults(func=cmd_stats)

    synth = sub.add_parser("synth", help="synthesize a benchmark design")
    synth.add_argument("design", type=_design_name)
    synth.add_argument("out")
    synth.add_argument("--scale", choices=["ci", "paper"], default="ci")
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

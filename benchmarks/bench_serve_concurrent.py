"""Concurrent multi-session serving: admission scheduler vs the old lock.

PR 8's daemon serialized every engine run behind one global lock, so two
sessions' checks queued even with idle cores. The admission scheduler
admits compute-bound requests from *different* sessions concurrently; this
benchmark measures what that buys.

Shape: K sessions (uart + jpeg, planted violations), one client per
session, each issuing a warm-up check plus ``CHECKS_PER_CLIENT`` timed
checks back to back over HTTP. ``report_lru=0`` and version-advancing
content keep every check an honest engine run (no LRU answers, and
back-to-back requests from one client never coalesce). The same workload
runs at ``max_concurrent=1`` (the PR 8 regime) and ``max_concurrent=2``;
the payload reports aggregate checks/second for both and the speedup.

Gates:

* **byte identity** — every served CSV at every concurrency level must
  equal the local engine's CSV for that design (enforced everywhere).
* **throughput** — >= ``SPEEDUP_TARGET``x aggregate throughput at
  ``max_concurrent=2``, enforced only on hosts with at least
  :data:`ENFORCE_CPUS` cores (two admitted in-process parallel checks
  share one interpreter; a small container records
  ``speedup_enforced: false`` honestly).

Run directly (``python -m benchmarks.bench_serve_concurrent``) or through
pytest; both regenerate ``BENCH_serve_concurrent.json``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

from benchmarks.common import SCALE, write_bench_json
from repro.client import ServeClient, report_json_to_csv
from repro.core import Engine, EngineOptions
from repro.gdsii import write
from repro.layout import gdsii_from_layout
from repro.server import ServerState, start_server
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations

DESIGNS = ("uart", "jpeg")
TOP = "top"

CHECKS_PER_CLIENT = 3
CONCURRENCY_LEVELS = (1, 2)

SPEEDUP_TARGET = 2.0
#: Enforcing the speedup needs at least this many cores to mean anything.
ENFORCE_CPUS = 4

_payload = None


def _engine_options() -> EngineOptions:
    return EngineOptions(mode="parallel")


def _synth(tmpdir: str) -> dict:
    """One dirty GDS per design, plus its local reference CSV."""
    workloads = {}
    for name in DESIGNS:
        layout = build_design(name, SCALE)
        inject_violations(layout, InjectionPlan(spacing=3), layer=asap7.M2, seed=13)
        path = os.path.join(tmpdir, f"{name}.gds")
        write(gdsii_from_layout(layout), path)
        with Engine(options=_engine_options()) as engine:
            local = engine.check(layout, rules=asap7.full_deck())
        workloads[name] = {"path": path, "csv": local.to_csv()}
    return workloads


def _run_level(workloads: dict, max_concurrent: int) -> dict:
    """All clients, one per session, against a fresh daemon; returns timings."""
    state = ServerState(
        options=_engine_options(), report_lru=0, max_concurrent=max_concurrent
    )
    with start_server(state) as handle:
        client = ServeClient(handle.url)
        client.wait_ready(timeout=30)
        sessions = {
            name: client.create_session(path=item["path"], top=TOP)["session"]
            for name, item in workloads.items()
        }
        # Warm up: each session pays its plan compile once, outside the
        # timed region, exactly like a resident daemon's steady state.
        for name, sid in sessions.items():
            response = client.check(sid)
            assert (
                report_json_to_csv(response["report"]) == workloads[name]["csv"]
            ), f"warm-up CSV mismatch for {name} at max_concurrent={max_concurrent}"

        barrier = threading.Barrier(len(sessions))
        mismatches = []
        errors = []
        per_client_seconds = {}

        def drive(name: str, sid: str) -> None:
            try:
                own = ServeClient(handle.url)
                barrier.wait(30)
                start = time.perf_counter()
                for _ in range(CHECKS_PER_CLIENT):
                    response = own.check(sid)
                    if report_json_to_csv(response["report"]) != workloads[name]["csv"]:
                        mismatches.append(name)
                per_client_seconds[name] = time.perf_counter() - start
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(repr(error))

        threads = [
            threading.Thread(target=drive, args=(name, sid))
            for name, sid in sessions.items()
        ]
        wall_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(600)
        wall = time.perf_counter() - wall_start
        stats = client.stats()
    assert not errors, errors
    assert not mismatches, (
        f"served CSVs diverged at max_concurrent={max_concurrent}: {mismatches}"
    )
    checks = CHECKS_PER_CLIENT * len(sessions)
    return {
        "max_concurrent": max_concurrent,
        "sessions": len(sessions),
        "checks": checks,
        "wall_seconds": wall,
        "throughput_checks_per_second": checks / wall,
        "per_client_seconds": dict(sorted(per_client_seconds.items())),
        "engine_runs": stats["counters"]["engine_runs"],
        "max_active_seen": stats["max_active_seen"],
        "csv_identical": True,  # the assert above raises otherwise
    }


def run_benchmark() -> dict:
    cpu_count = os.cpu_count() or 1
    tmpdir = tempfile.mkdtemp(prefix="bench_serve_conc_")
    workloads = _synth(tmpdir)
    levels = [_run_level(workloads, mc) for mc in CONCURRENCY_LEVELS]
    baseline = next(l for l in levels if l["max_concurrent"] == 1)
    concurrent = levels[-1]
    speedup = (
        concurrent["throughput_checks_per_second"]
        / baseline["throughput_checks_per_second"]
    )
    payload = {
        "benchmark": "serve_concurrent",
        "designs": list(DESIGNS),
        "scale": SCALE,
        "cpu_count": cpu_count,
        "checks_per_client": CHECKS_PER_CLIENT,
        "engine_options": {"mode": "parallel"},
        "levels": levels,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_measured": speedup,
        "speedup_enforced": cpu_count >= ENFORCE_CPUS,
        "reports_identical": all(l["csv_identical"] for l in levels),
    }
    payload["path"] = write_bench_json("serve_concurrent", payload)
    global _payload
    _payload = payload
    return payload


def benchmark_payload() -> dict:
    global _payload
    if _payload is None:
        _payload = run_benchmark()
    return _payload


def test_served_reports_identical_at_every_concurrency():
    payload = benchmark_payload()
    assert payload["reports_identical"]


def test_concurrency_actually_happened_on_multicore():
    payload = benchmark_payload()
    concurrent = payload["levels"][-1]
    if payload["cpu_count"] >= 2:
        assert concurrent["max_active_seen"] >= 2, concurrent
    assert payload["levels"][0]["max_active_seen"] == 1


def test_concurrent_throughput_beats_serialized():
    payload = benchmark_payload()
    if not payload["speedup_enforced"]:
        import pytest

        pytest.skip(
            f"needs >= {ENFORCE_CPUS} cores, host has {payload['cpu_count']}"
        )
    assert payload["speedup_measured"] >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x aggregate throughput at "
        f"max_concurrent=2, measured {payload['speedup_measured']:.2f}x "
        f"on {payload['cpu_count']} cores"
    )


def main() -> None:
    payload = benchmark_payload()
    print(
        f"concurrent serving ({'+'.join(payload['designs'])} @ "
        f"{payload['scale']}, {payload['cpu_count']} cores)"
    )
    for level in payload["levels"]:
        print(
            f"  max_concurrent={level['max_concurrent']}: "
            f"{level['checks']} checks in {level['wall_seconds']:.2f}s  "
            f"({level['throughput_checks_per_second']:.2f} checks/s, "
            f"max_active_seen={level['max_active_seen']})"
        )
    status = "enforced" if payload["speedup_enforced"] else (
        f"not enforced ({payload['cpu_count']} cores < {ENFORCE_CPUS})"
    )
    print(
        f"  target {SPEEDUP_TARGET}x: measured "
        f"{payload['speedup_measured']:.2f}x [{status}]"
    )
    print(f"  wrote {payload['path']}")


if __name__ == "__main__":
    main()

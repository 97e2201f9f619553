"""Served-DRC benchmark: a warm daemon vs one-shot cold CLI invocations.

Every one-shot ``repro check`` pays interpreter start-up, GDS parsing,
hierarchy analysis, and engine warm-up, then throws all of it away. The
``repro serve`` daemon pays those once per session and answers subsequent
requests from warm state (or, for identical repeats, straight from the
report LRU without touching the engine).

Four measurements on the jpeg design:

* **cold CLI**: median wall time of ``repro check`` subprocesses — the
  price of *not* running a daemon.
* **first served**: the upload of the GDS bytes that creates a fresh
  session, then its first check over HTTP (pays the one engine run).
* **warm served**: p50 of repeat checks of the same session — the steady
  state the daemon exists for. Gated at >= 3x faster than cold CLI.
* **coalescing**: N concurrent clients issue the identical request against
  a fresh daemon; the single-flight layer must record exactly 1 engine run.

Correctness is gated too: the served CSV and violation JSON must be
byte-identical to the cold CLI's output.

Run directly (``python -m benchmarks.bench_serve``) or through pytest;
both regenerate ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from benchmarks.common import REPO_ROOT, SCALE, write_bench_json
from repro.client import ServeClient, report_json_to_csv
from repro.gdsii import write
from repro.layout import gdsii_from_layout
from repro.server import ServerState, start_server
from repro.workloads import InjectionPlan, asap7, build_design, inject_violations

DESIGN = "jpeg"
TOP = "top"

COLD_RUNS = 3
WARM_RUNS = 9
CONCURRENT_CLIENTS = 8

SPEEDUP_TARGET = 3.0

_payload = None


def _cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    return env


def _cold_cli(gds_path: str, fmt: str) -> tuple:
    """One cold ``repro check`` subprocess; returns (seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", gds_path, "--top", TOP,
         "--format", fmt],
        capture_output=True,
        text=True,
        env=_cli_env(),
        cwd=REPO_ROOT,
    )
    seconds = time.perf_counter() - start
    assert proc.returncode in (0, 1), proc.stderr
    return seconds, proc.stdout


def _synth(tmpdir: str) -> str:
    layout = build_design(DESIGN, SCALE)
    # A few planted violations so the byte-identity gate compares real
    # violation payloads, not two empty lists.
    inject_violations(layout, InjectionPlan(spacing=3), layer=asap7.M2, seed=11)
    path = os.path.join(tmpdir, f"{DESIGN}.gds")
    write(gdsii_from_layout(layout), path)
    return path


def _measure_coalescing(gds_bytes: bytes) -> dict:
    """N clients fire the identical request at a fresh daemon at once."""
    state = ServerState()
    with start_server(state) as handle:
        client = ServeClient(handle.url)
        client.wait_ready(timeout=30)
        sid = client.create_session(data=gds_bytes, top=TOP)["session"]
        barrier = threading.Barrier(CONCURRENT_CLIENTS)
        sources = []
        errors = []

        def worker():
            try:
                worker_client = ServeClient(handle.url)
                barrier.wait(30)
                response = worker_client.check(sid)
                sources.append(response["meta"]["source"])
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(repr(error))

        threads = [
            threading.Thread(target=worker) for _ in range(CONCURRENT_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        stats = client.stats()
    assert not errors, errors
    counters = stats["counters"]
    return {
        "clients": CONCURRENT_CLIENTS,
        "requests": counters["requests"],
        "engine_runs": counters["engine_runs"],
        "coalesced": counters["coalesced"],
        "report_lru_hits": counters["report_lru_hits"],
        "sources": sorted(sources),
    }


def run_benchmark() -> dict:
    tmpdir = tempfile.mkdtemp(prefix="bench_serve_")
    gds_path = _synth(tmpdir)
    with open(gds_path, "rb") as fh:
        gds_bytes = fh.read()

    cold = [_cold_cli(gds_path, "csv") for _ in range(COLD_RUNS)]
    cold_seconds = statistics.median(seconds for seconds, _ in cold)
    cold_csv = cold[0][1]
    _, cold_json_out = _cold_cli(gds_path, "json")
    cold_violations = [
        result["violations"] for result in json.loads(cold_json_out)["results"]
    ]

    state = ServerState()
    with start_server(state) as handle:
        client = ServeClient(handle.url)
        client.wait_ready(timeout=30)
        start = time.perf_counter()
        sid = client.create_session(data=gds_bytes, top=TOP)["session"]
        first_response = client.check(sid)
        first_seconds = time.perf_counter() - start

        warm_seconds = []
        for _ in range(WARM_RUNS):
            start = time.perf_counter()
            response = client.check(sid)
            warm_seconds.append(time.perf_counter() - start)
        warm_p50 = statistics.median(warm_seconds)
        warm_sources = {response["meta"]["source"]}

    served_report = first_response["report"]
    served_csv = report_json_to_csv(served_report) + "\n"
    served_violations = [r["violations"] for r in served_report["results"]]

    coalescing = _measure_coalescing(gds_bytes)

    payload = {
        "design": DESIGN,
        "scale": SCALE,
        "cold_cli_runs": COLD_RUNS,
        "cold_cli_seconds": cold_seconds,
        "first_served_seconds": first_seconds,
        "warm_served_runs": WARM_RUNS,
        "warm_served_p50_seconds": warm_p50,
        "warm_speedup_vs_cold_cli": cold_seconds / warm_p50,
        "warm_source": sorted(warm_sources),
        "csv_identical_to_cold_cli": served_csv == cold_csv,
        "violations_identical_to_cold_cli": served_violations == cold_violations,
        "coalescing": coalescing,
    }
    payload["path"] = write_bench_json("serve", payload)
    global _payload
    _payload = payload
    return payload


def benchmark_payload() -> dict:
    global _payload
    if _payload is None:
        _payload = run_benchmark()
    return _payload


def test_served_output_is_byte_identical():
    payload = benchmark_payload()
    assert payload["csv_identical_to_cold_cli"]
    assert payload["violations_identical_to_cold_cli"]


def test_warm_served_beats_cold_cli_3x():
    payload = benchmark_payload()
    assert payload["warm_speedup_vs_cold_cli"] >= SPEEDUP_TARGET, (
        f"expected warm served requests >= {SPEEDUP_TARGET}x faster than "
        f"cold CLI runs, measured {payload['warm_speedup_vs_cold_cli']:.2f}x"
    )


def test_concurrent_identical_requests_coalesce_to_one_engine_run():
    payload = benchmark_payload()
    c = payload["coalescing"]
    assert c["engine_runs"] == 1, c
    assert c["requests"] == c["clients"], c
    assert c["coalesced"] + c["report_lru_hits"] == c["clients"] - 1, c


def main() -> None:
    payload = benchmark_payload()
    print(f"DRC-as-a-service ({payload['design']} @ {payload['scale']})")
    print(f"  cold CLI (median of {COLD_RUNS}): "
          f"{payload['cold_cli_seconds'] * 1e3:8.1f} ms")
    print(f"  first served request:      "
          f"{payload['first_served_seconds'] * 1e3:8.1f} ms")
    print(f"  warm served p50 ({WARM_RUNS} runs): "
          f"{payload['warm_served_p50_seconds'] * 1e3:8.1f} ms  "
          f"({payload['warm_speedup_vs_cold_cli']:.0f}x vs cold CLI)")
    c = payload["coalescing"]
    print(f"  coalescing: {c['clients']} concurrent clients -> "
          f"{c['engine_runs']} engine run(s), {c['coalesced']} coalesced, "
          f"{c['report_lru_hits']} LRU hit(s)")
    print(f"  csv identical: {payload['csv_identical_to_cold_cli']}, "
          f"violations identical: {payload['violations_identical_to_cold_cli']}")
    print(f"  wrote {payload['path']}")


if __name__ == "__main__":
    main()

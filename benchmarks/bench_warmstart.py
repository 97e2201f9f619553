"""Warm-start benchmark: pack-store hits must erase the pack phase.

Runs a store-backed deck (spacing + corner + enclosure — every pack kind
the content-addressed store serves) twice against a fresh cache directory
and emits ``BENCH_warmstart.json``. Three properties are checked:

* **Warm pack phase is exactly zero (hard)**: every warm run reports
  ``pack_seconds == 0.0`` and nonzero cache hits — packing was served
  entirely from memmapped store entries, never rebuilt.
* **Determinism (hard)**: the CSV marker dump is byte-identical cold vs
  warm, and with the cache both enabled and disabled — the store must be
  invisible in the report.
* **End-to-end speedup (gated)**: ≥ 2x warm over cold on the
  pack-dominated workload (the smallest design, where packing dominates
  kernel time). Larger designs are recorded but not enforced: their
  kernel phase grows with pair count while the saved pack phase does not.

Run directly (``python -m benchmarks.bench_warmstart``) or through pytest.
"""

from __future__ import annotations

import tempfile
import time

from benchmarks.common import SCALE, design, write_bench_json
from repro.core import Engine, EngineOptions, PackStore, ReportCache
from repro.core.rules import layer
from repro.workloads import asap7

#: Generator workloads, smallest to largest flat polygon count.
DESIGNS = ("uart", "jpeg")

#: The pack-dominated workload — the speedup criterion applies here.
PACK_DOMINATED = "uart"

SPEEDUP_TARGET = 2.0


def store_backed_deck():
    """Spacing + corner + enclosure: every pack kind the store serves.

    Width/area rules are deliberately excluded — their packing is not
    store-backed, so including them would report nonzero warm
    ``pack_seconds`` for work the store never promised to save.
    """
    rules = asap7.spacing_deck() + asap7.enclosure_deck()
    rules.append(layer(asap7.M2).corner_spacing().greater_than(10).named("CS.M2"))
    return rules


def _run(layout, deck, *, cache_dir=None, use_cache=True):
    options = EngineOptions(mode="parallel", cache_dir=cache_dir, use_cache=use_cache)
    start = time.perf_counter()
    with Engine(options=options) as engine:
        report = engine.check(layout, rules=deck)
    return report, time.perf_counter() - start


def run_pair(design_name: str) -> dict:
    """Cold + warm run of one design against a fresh cache directory."""
    layout = design(design_name)
    deck = store_backed_deck()
    with tempfile.TemporaryDirectory() as cache:
        cold, cold_seconds = _run(layout, deck, cache_dir=cache)
        # The cold run's stored report would answer the warm run before the
        # pack store — what this benchmark measures — is read at all.
        ReportCache(PackStore(cache)).clear()
        warm, warm_seconds = _run(layout, deck, cache_dir=cache)
    cold_stats = cold.results[-1].stats
    warm_stats = warm.results[-1].stats
    if warm.to_csv() != cold.to_csv():
        raise AssertionError(f"{design_name}: warm report differs from cold")
    if warm_stats["pack_seconds"] != 0.0:
        raise AssertionError(
            f"{design_name}: warm run repacked for "
            f"{warm_stats['pack_seconds']:.4f}s"
        )
    if warm_stats["cache_hits"] == 0:
        raise AssertionError(f"{design_name}: warm run recorded no cache hits")
    return {
        "design": design_name,
        "scale": SCALE,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else None,
        "cold_pack_seconds": cold_stats["pack_seconds"],
        "warm_pack_seconds": warm_stats["pack_seconds"],
        "cache_misses": cold_stats["cache_misses"],
        "cache_hits": warm_stats["cache_hits"],
        "cache_bytes_written": cold_stats["cache_bytes_written"],
        "cache_bytes_read": warm_stats["cache_bytes_read"],
        "violations": warm.total_violations,
    }


def run_cache_matrix(design_name: str) -> dict:
    """Byte-identical reports with the cache on and off."""
    layout = design(design_name)
    deck = store_backed_deck()
    baseline = None
    cells = []
    with tempfile.TemporaryDirectory() as cache:
        for use_cache in (True, False):
            ReportCache(PackStore(cache)).clear()
            report, seconds = _run(layout, deck, cache_dir=cache, use_cache=use_cache)
            csv = report.to_csv()
            if baseline is None:
                baseline = csv
            elif csv != baseline:
                raise AssertionError(
                    f"{design_name}: report at cache={'on' if use_cache else 'off'} differs"
                )
            cells.append({"cache": use_cache, "seconds": seconds})
    return {"design": design_name, "cells": cells, "reports_identical": True}


def run_benchmark() -> dict:
    pairs = [run_pair(name) for name in DESIGNS]
    dominated = next(p for p in pairs if p["design"] == PACK_DOMINATED)
    payload = {
        "benchmark": "warmstart",
        "deck": "asap7_spacing+corner+enclosure",
        "pairs": pairs,
        "cache_matrix": run_cache_matrix(PACK_DOMINATED),
        "speedup_target": SPEEDUP_TARGET,
        "speedup_design": PACK_DOMINATED,
        "speedup_measured": dominated["speedup"],
    }
    path = write_bench_json("warmstart", payload)
    payload["path"] = path
    return payload


def test_warm_run_skips_the_pack_phase():
    """Warm stats: zero pack seconds, nonzero hits, identical report."""
    pair = run_pair("uart")
    assert pair["warm_pack_seconds"] == 0.0
    assert pair["cache_hits"] > 0
    assert pair["cache_bytes_read"] > 0


def test_reports_identical_with_and_without_the_cache():
    """The same report with the cache on and off."""
    matrix = run_cache_matrix("uart")
    assert matrix["reports_identical"]
    assert len(matrix["cells"]) == 2


def test_warmstart_speedup():
    """Emit BENCH_warmstart.json; enforce 2x on the pack-dominated pair."""
    payload = run_benchmark()
    assert payload["speedup_measured"] >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x warm-over-cold on "
        f"{payload['speedup_design']}, measured "
        f"{payload['speedup_measured']:.2f}x"
    )


def main() -> None:
    payload = run_benchmark()
    print(f"warm start ({payload['deck']})")
    for pair in payload["pairs"]:
        print(
            f"  [{pair['design']} @ {pair['scale']}] "
            f"cold {pair['cold_seconds'] * 1e3:7.1f} ms "
            f"(pack {pair['cold_pack_seconds'] * 1e3:6.1f} ms, "
            f"{pair['cache_misses']} misses)  "
            f"warm {pair['warm_seconds'] * 1e3:7.1f} ms "
            f"(pack {pair['warm_pack_seconds'] * 1e3:.1f} ms, "
            f"{pair['cache_hits']} hits)  "
            f"speedup {pair['speedup']:.2f}x"
        )
    matrix = payload["cache_matrix"]
    combos = ", ".join(
        f"cache {'on' if c['cache'] else 'off'}" for c in matrix["cells"]
    )
    print(f"  reports byte-identical across: {combos}")
    print(
        f"  target {SPEEDUP_TARGET}x on {payload['speedup_design']}: "
        f"measured {payload['speedup_measured']:.2f}x"
    )
    print(f"  wrote {payload['path']}")


if __name__ == "__main__":
    main()

"""Incremental re-check benchmark: an edit re-checks in ~O(edit), not O(chip).

Checks a clean jpeg build cold, then applies 1 / 4 / 16 small top-level
wire edits and re-checks each edited version through the digest-driven
diff + multi-window + splice path (``repro.core.incremental.recheck``).
Three properties are checked:

* **Exactness (hard)**: every spliced report is byte-identical to a cold
  full check of the edited layout — for every edit size.
* **One-edit speedup (gated)**: re-checking a single-wire edit is at
  least 5x faster than the cold check it replaces, each timing the median
  of :data:`ROUNDS` alternating runs.
* **Edit-size scaling (gated)**: re-check time grows with the number of
  dirty regions — 16 spread-out edits cost more than 1, and all sizes
  stay under the cold-check time.

Run directly (``python -m benchmarks.bench_incremental``) or through
pytest; both regenerate ``BENCH_incremental.json``.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.common import SCALE, design, write_bench_json
from repro.core import Engine, EngineOptions
from repro.core.incremental import recheck
from repro.core.rules import layer
from repro.geometry import Polygon
from repro.hierarchy import HierarchyTree
from repro.workloads import asap7, build_design

DESIGN = "jpeg"

EDIT_COUNTS = (1, 4, 16)

SPEEDUP_TARGET = 5.0

#: Each edit size's recheck and cold timings are the medians of this many
#: rounds, each on a fresh edited build, the two runs alternating which goes
#: first: one pair of single timings spread from 2.8x to 4.1x on one host.
ROUNDS = 5

#: Skinny wire dimensions: narrower than M2_WIDTH so each edit plants a
#: real width violation the splice must pick up.
WIRE_W, WIRE_H = 12, 80


def bench_deck():
    """Every splice-sensitive kind the issue names: spacing, width,
    enclosure, corner — on the layers jpeg actually routes."""
    return [
        asap7.width_rule(asap7.M1),
        asap7.spacing_rule(asap7.M1),
        asap7.width_rule(asap7.M2),
        asap7.spacing_rule(asap7.M2),
        layer(asap7.M2).corner_spacing().greater_than(10).named("CS.M2"),
        asap7.enclosure_rule(asap7.V2, asap7.M2),
    ]


def apply_edits(layout, count: int) -> None:
    """Add ``count`` skinny M2 wires spread evenly across the chip width.

    Spreading keeps the dirty windows disjoint, so the re-checked area —
    and hence the re-check time — genuinely scales with the edit count.
    """
    chip = HierarchyTree(layout).top_mbr(asap7.M2)
    span = max(chip.xhi - chip.xlo - 2 * WIRE_W, 1)
    y = chip.ylo + (chip.yhi - chip.ylo) * 2 // 3
    for i in range(count):
        x = chip.xlo + WIRE_W + span * i // count
        layout.top_cell().add_polygon(
            asap7.M2, Polygon.from_rect_coords(x, y, x + WIRE_W, y + WIRE_H)
        )


def run_edit(old, baseline, deck, count: int) -> dict:
    """Edit fresh builds, re-check each against the baseline and check it
    cold, :data:`ROUNDS` times; verify every splice against its cold check."""
    options = EngineOptions(mode="sequential")
    recheck_times, cold_times = [], []
    for round_ in range(ROUNDS):
        new = build_design(DESIGN, SCALE)
        apply_edits(new, count)
        for run in ("recheck", "cold") if round_ % 2 == 0 else ("cold", "recheck"):
            start = time.perf_counter()
            if run == "recheck":
                outcome = recheck(old, new, rules=deck, options=options, cached=baseline)
                recheck_times.append(time.perf_counter() - start)
            else:
                cold = Engine(options=options).check(new, rules=deck)
                cold_times.append(time.perf_counter() - start)
        if outcome.report.to_csv() != cold.to_csv():
            raise AssertionError(
                f"{DESIGN} x{count}: spliced report differs from the cold check"
            )
    recheck_seconds = statistics.median(recheck_times)
    cold_seconds = statistics.median(cold_times)
    dirty_rects = sum(len(r) for r in outcome.diff.dirty.values())
    dispositions = {}
    for kind in outcome.disposition.values():
        dispositions[kind] = dispositions.get(kind, 0) + 1
    return {
        "edit_count": count,
        "dirty_rects": dirty_rects,
        "recheck_seconds": recheck_seconds,
        "cold_seconds": cold_seconds,
        "speedup": cold_seconds / recheck_seconds if recheck_seconds else None,
        "dispositions": dispositions,
        "violations": outcome.report.total_violations,
        "identical_to_cold": True,
    }


def run_benchmark() -> dict:
    old = design(DESIGN)
    deck = bench_deck()
    start = time.perf_counter()
    baseline = Engine(options=EngineOptions(mode="sequential")).check(
        old, rules=deck
    )
    baseline_seconds = time.perf_counter() - start
    edits = [run_edit(old, baseline, deck, count) for count in EDIT_COUNTS]
    payload = {
        "benchmark": "incremental",
        "design": DESIGN,
        "scale": SCALE,
        "deck": "asap7 width+spacing+corner+enclosure",
        "baseline_seconds": baseline_seconds,
        "edits": edits,
        "speedup_target": SPEEDUP_TARGET,
        "one_edit_speedup": edits[0]["speedup"],
    }
    path = write_bench_json("incremental", payload)
    payload["path"] = path
    return payload


_payload = None


def benchmark_payload() -> dict:
    """The benchmark is expensive: run it once per process, share results."""
    global _payload
    if _payload is None:
        _payload = run_benchmark()
    return _payload


def test_spliced_reports_match_cold_checks():
    """Exactness at every edit size (asserted inside run_edit)."""
    payload = benchmark_payload()
    assert all(e["identical_to_cold"] for e in payload["edits"])
    assert all(e["violations"] >= e["edit_count"] for e in payload["edits"])


def test_one_edit_recheck_is_5x_faster():
    payload = benchmark_payload()
    assert payload["one_edit_speedup"] >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x re-check-over-cold on a one-wire "
        f"edit, measured {payload['one_edit_speedup']:.2f}x"
    )


def test_recheck_time_scales_with_edit_size():
    payload = benchmark_payload()
    edits = payload["edits"]
    assert [e["dirty_rects"] for e in edits] == sorted(
        e["dirty_rects"] for e in edits
    )
    assert edits[-1]["recheck_seconds"] > edits[0]["recheck_seconds"]
    for entry in edits:
        assert entry["recheck_seconds"] < entry["cold_seconds"]


def main() -> None:
    payload = benchmark_payload()
    print(f"incremental re-check ({payload['deck']})")
    print(
        f"  [{payload['design']} @ {payload['scale']}] "
        f"baseline cold check {payload['baseline_seconds'] * 1e3:7.1f} ms"
    )
    for entry in payload["edits"]:
        print(
            f"  {entry['edit_count']:3d} edit(s): "
            f"recheck {entry['recheck_seconds'] * 1e3:7.1f} ms  "
            f"cold {entry['cold_seconds'] * 1e3:7.1f} ms  "
            f"speedup {entry['speedup']:6.2f}x  "
            f"({entry['dirty_rects']} dirty rects, "
            f"dispositions {entry['dispositions']})"
        )
    print(
        f"  target {SPEEDUP_TARGET}x on 1 edit: "
        f"measured {payload['one_edit_speedup']:.2f}x"
    )
    print(f"  wrote {payload['path']}")


if __name__ == "__main__":
    main()

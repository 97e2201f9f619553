"""Checks of the ledger itself: ``python -m pytest benchmarks/ledger -q``.

Not part of tier-1 (``testpaths = ["tests"]``). Everything here runs at
smoke size (uart@1, two ops) so the whole file stays well under a minute.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import procs
from stats import percentile, quartile_spread
from tracing import Tracer

sys.path.insert(0, str(procs.SRC))

import inputs as inp  # noqa: E402  (needs src on the path)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((procs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke_inputs(seed: int) -> inp.Inputs:
    size = workloads.SMOKE
    return inp.synthesize(
        seed,
        design=size.design,
        scale=size.scale,
        injected=size.injected,
        n_edits=size.n_edits,
    )


# -- BENCHMARK.json ------------------------------------------------------------


def test_spec_names_units_and_bounds():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    assert SPEC["paths"] == ["benchmarks/ledger"]


# -- one command prints every declared metric ------------------------------------


def run_ledger(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_are_the_declared_ones(name, trace):
    result = run_ledger("--workload", name, "--seed", "3", "--smoke", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {e["name"]: e["unit"] for e in declared} == {
        key: value["unit"] for key, value in result["metrics"].items()
    }
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())
    else:
        assert (HERE / "out" / f"trace_{name}.json").is_file()


def test_exact_repeat_counts_repeat_across_traced_runs():
    unit = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    # Entry bytes embed per-rule seconds; every other count must repeat.
    exact = {n for n, u in unit.items() if u in ("count", "bytes")} - {
        "core.reportcache.entry_bytes"
    }
    runs = [
        run_ledger("--workload", "cold_par", "--seed", "5", "--smoke", "--trace", "1")
        for _ in range(2)
    ]
    first, second = ({n: r["metrics"][n]["value"] for n in exact} for r in runs)
    assert first == second


# -- inputs ----------------------------------------------------------------------


def test_seed_decides_the_input_bytes():
    one, again, other = smoke_inputs(1), smoke_inputs(1), smoke_inputs(2)
    assert one.base_gds == again.base_gds and one.edits == again.edits
    assert one.queries == again.queries
    assert one.edit_gds(0) == again.edit_gds(0)
    assert one.base_gds != other.base_gds and one.edits != other.edits
    assert one.edit_gds(0) != one.edit_gds(1) != one.base_gds


def test_edit_adds_exactly_its_row_to_the_oracle():
    made = smoke_inputs(4)
    base = inp.csv_rows(inp.oracle_csv(made.base_gds))
    edited = inp.csv_rows(inp.oracle_csv(made.edit_gds(2)))
    assert edited == base + inp.csv_rows("header\n" + made.edits[2].row)
    everything = inp.Query(severity="error")
    assert inp.filter_rows(edited, everything) == edited
    assert not inp.filter_rows(edited, inp.Query(severity="warning"))
    x0, y0, x1, y1 = made.edits[2].rect
    touching = inp.Query(bbox=(x1, y1, x1 + 5, y1 + 5))  # closed boxes: a corner counts
    assert list(inp.filter_rows(edited, touching)) == [made.edits[2].row]


# -- failures become failed ops, not crashes ----------------------------------------


def test_op_past_its_timeout_is_killed_and_counted_failed(tmp_path):
    # A daemon never exits on its own: the stand-in for a hung op.
    result = procs.run_cli(["serve", "--port", "0"], cwd=tmp_path, timeout=1.0)
    assert result.timed_out and result.exit_code == -signal.SIGKILL
    assert 1.0 <= result.wall_s < 10.0
    workload = workloads.ColdSeq(smoke_inputs(1), workloads.SMOKE, tmp_path / "w")
    sample = workload._cli_sample(result, lambda text: "")
    assert not sample.ok and "timed out" in sample.detail


def test_corrupted_oracle_turns_into_failed_ops(tmp_path):
    workload = workloads.ColdPar(workloads.make_inputs(1, workloads.SMOKE), workloads.SMOKE, tmp_path / "w")
    workload.setup()
    try:
        assert workload.op(0).ok
        workload.base_csv = workload.base_csv.replace(",error,", ",warning,", 1)
        sample = workload.op(1)
        assert not sample.ok and "differs from the oracle" in sample.detail
        assert sample.wall_s > 0
    finally:
        workload.teardown()


def test_variant_differing_from_its_own_oracle_is_reported(tmp_path):
    workload = workloads.EditRecheck(workloads.make_inputs(2, workloads.SMOKE), workloads.SMOKE, tmp_path / "w")
    workload.setup()
    try:
        workload.between(0)
        assert workload.op(0).ok
        assert workload.failed_variant_ops() == []
        edit, text = workload.variant_outputs[0]
        lines = text.splitlines(keepends=True)
        # Same rows, another order: the multiset check passes, bytes do not.
        workload.variant_outputs[0] = (edit, "".join(lines[:1] + lines[:0:-1]))
        assert workload.failed_variant_ops() == [0]
    finally:
        workload.teardown()


# -- helpers ----------------------------------------------------------------------------


def test_percentile_on_known_lists():
    assert percentile([7.0], 0.25) == 7.0
    assert percentile([1, 2, 3, 4, 5], 0.25) == 2
    assert percentile([4, 1, 3, 2], 0.25) == 1.75
    assert percentile([1, 2, 3, 4], 0.5) == 2.5
    assert percentile([1, 2, 3, 4], 0.0) == 1 and percentile([1, 2, 3, 4], 1.0) == 4
    assert percentile(list(range(101)), 0.99) == 99
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)
    # statistics.quantiles(n=4) of 1..10 gives 2.75 and 8.25.
    assert quartile_spread(list(range(1, 11))) == pytest.approx(5.5 / 5.5)


def test_host_speed_scales_by_the_reference_job(tmp_path, monkeypatch):
    assert all(seconds > 0 for seconds in procs.run_reference(tmp_path))
    # A host on which the reference job takes twice the nominal time is half
    # as fast: what it measured counts half.
    slow = (2 * procs.REFERENCE_NOMINAL_S, 4 * procs.REFERENCE_NOMINAL_S)
    monkeypatch.setattr(procs, "run_reference", lambda cwd: slow)
    host = procs.HostSpeed(tmp_path)
    assert host.nominal(3.0, 2.0) == pytest.approx((1.5, 0.5))


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.op("w:0"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
    with tracer.span("probe"):
        pass
    op, outer, inner_a, inner_b, probe = tracer.spans
    assert (op.parent, outer.parent, inner_a.parent, inner_b.parent) == (None, 0, 1, 1)
    assert probe.op_id is None and inner_a.op_id == "w:0"
    own = tracer.self_seconds()
    assert set(own) == {"w:0"}
    inner = (inner_a.end - inner_a.start) + (inner_b.end - inner_b.start)
    assert own["w:0"]["inner"] == pytest.approx(inner)
    assert own["w:0"]["outer"] == pytest.approx(outer.end - outer.start - inner)
    assert sum(own["w:0"].values()) == pytest.approx(op.end - op.start)

#!/usr/bin/env python3
"""Perf ledger: one command per (workload, seed) run.

    python3 benchmarks/ledger/run.py --workload W --seed S \\
        [--seconds N] [--trace 0|1] [--smoke]
    python3 benchmarks/ledger/run.py --aa N [--workload W] [--seconds N]

A run sets the workload up (several times, reporting the median as
``setup_s``), drives verified ops from outside for ``--seconds`` seconds,
and prints one JSON object as its last line of output: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, every duration scaled to the nominal host by the
reference job run next to it (``procs.HostSpeed``); with ``--trace 1``
the per-layer ones of a separate in-process replay. Names, units and
bounds are fixed in ``BENCHMARK.json`` at the root of the checkout, and a
run that would print any other set of names fails instead. ``--aa N`` runs
every workload N times on seeds 1..N and prints the odd-versus-even
comparison (README).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from procs import HERE, ROOT, SRC, HostSpeed

OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Consecutive failed ops after which a run stops instead of spinning on a
#: dead daemon until the clock runs out.
MAX_FAILURE_STREAK = 3
SMOKE_OPS = 2


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def emit(spec: dict, section: str, values: Dict[str, float], attempted: int, failed: int) -> None:
    """Print the result line, refusing any metric set but the declared one."""
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise SystemExit(
            f"metrics differ from BENCHMARK.json {section}: "
            f"missing {missing}, undeclared {extra}"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": declared[name]}
            for name in sorted(values)
        },
    }
    print(json.dumps(result), flush=True)


def timed_run(name: str, seed: int, seconds: float, smoke: bool) -> tuple:
    """Inputs, set-ups, the timed phase, verification: the end-to-end metrics."""
    from workloads import FULL, SMOKE, WORKLOADS, make_inputs

    size = SMOKE if smoke else FULL
    rundir = OUT / f"run_{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    workload = None
    try:
        rundir.mkdir(parents=True)
        host = HostSpeed(rundir)
        start = time.perf_counter()
        inputs = make_inputs(seed, size)
        inputs_seconds, _ = host.nominal(time.perf_counter() - start)
        setup_seconds = []
        for index in range(1 if smoke else SETUP_REPEATS):
            if workload is not None:
                workload.teardown()
                host = HostSpeed(rundir)  # the teardown is not set-up time
            workload = WORKLOADS[name](inputs, size, rundir / f"setup_{index}")
            start = time.perf_counter()
            workload.setup()
            setup_seconds.append(host.nominal(time.perf_counter() - start)[0])

        samples = {}  # op index -> (sample as measured, its nominal wall and CPU seconds)
        attempted = failed = streak = 0
        deadline = time.perf_counter() + seconds
        while True:
            k = attempted
            workload.between(k)
            sample = workload.op(k)
            nominal = host.nominal(sample.wall_s, sample.cpu_s)
            attempted += 1
            if sample.ok:
                samples[k] = (sample, *nominal)
                streak = 0
            else:
                failed += 1
                streak += 1
                print(f"op {k} failed: {sample.detail}", file=sys.stderr)
            if smoke:
                if attempted >= SMOKE_OPS:
                    break
            elif time.perf_counter() >= deadline or streak >= MAX_FAILURE_STREAK:
                break
        peak_rss_mb = workload.peak_rss_mb()
        for k in workload.failed_variant_ops():
            print(f"op {k} failed: output differs from its own oracle", file=sys.stderr)
            if samples.pop(k, None) is not None:
                failed += 1
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(rundir, ignore_errors=True)
    if not samples:
        raise SystemExit(f"{name}: no op succeeded, nothing to report")
    metrics = {
        # Everything before the timed phase: inputs and oracle once, plus
        # the median of the repeated program-side set-ups.
        "setup_s": inputs_seconds + statistics.median(setup_seconds),
        "op_wall_s_p50": statistics.median(wall for _, wall, _ in samples.values()),
        "op_cpu_s_p50": statistics.median(cpu for _, _, cpu in samples.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": name,
        "seed": seed,
        "inputs_s": inputs_seconds,
        "setup_s": setup_seconds,
        "measured_wall_s": [s.wall_s for s, _, _ in samples.values()],
        "measured_cpu_s": [s.cpu_s for s, _, _ in samples.values()],
        "op_wall_s": [wall for _, wall, _ in samples.values()],
        "op_cpu_s": [cpu for _, _, cpu in samples.values()],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run_{name}_{seed}.json").write_text(json.dumps(record), encoding="utf-8")
    return metrics, attempted, failed


def traced_run(name: str, seed: int, smoke: bool) -> tuple:
    """One set-up, then the in-process replay: the per-layer metrics."""
    from layers import Layers
    from workloads import FULL, SMOKE, WORKLOADS, make_inputs

    size = SMOKE if smoke else FULL
    rundir = OUT / f"run_{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    workload = WORKLOADS[name](make_inputs(seed, size), size, rundir / "setup_0")
    try:
        workload.setup()
        scratch = rundir / "layers"
        scratch.mkdir()
        layers = Layers(workload, scratch)
        metrics = layers.run()
        layers.tracer.dump(OUT / f"trace_{name}.json", workload=name, seed=seed)
    finally:
        workload.teardown()
        shutil.rmtree(rundir, ignore_errors=True)
    for error in layers.errors:
        print(f"traced run: {error}", file=sys.stderr)
    attempted = (size.real_ops_per_pass + 4) * size.passes  # real ops + replayed ops
    return metrics, attempted, min(len(layers.errors), attempted)


# -- A/A: does the benchmark agree with itself? -----------------------------------


def _run_child(name: str, seed: int, seconds: int) -> Dict[str, float]:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        stdout=subprocess.PIPE,
        check=True,
    )
    result = json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: {result['failed']} ops failed")
    return {key: entry["value"] for key, entry in result["metrics"].items()}


def aa(spec: dict, names: List[str], runs: int, seconds: int) -> int:
    """Run each workload ``runs`` times, compare odd seeds against even.

    PASS needs the two medians within the metric's bound of each other,
    whichever is taken as the first, and, for the per-op quartile metrics,
    each half's inter-quartile range below the bound too. ``spread`` is the
    inter-quartile range of all the runs over their median, which the
    driver wants below the bound (and the builder below a third of it).
    """
    from stats import percentile, quartile_spread

    print(
        f"| workload | metric | bound | median odd | median even | worse by "
        f"| IQR odd | IQR even | spread ({runs} runs) | verdict |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    all_pass = True
    for name in names:
        rows = [_run_child(name, seed, seconds) for seed in range(1, runs + 1)]
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            odd = [row[metric] for row in rows[0::2]]
            even = [row[metric] for row in rows[1::2]]
            med_odd, med_even = statistics.median(odd), statistics.median(even)
            worse_by = max(med_odd, med_even) / min(med_odd, med_even) - 1.0
            iqrs = [
                (percentile(half, 0.75) - percentile(half, 0.25)) / statistics.median(half)
                for half in (odd, even)
            ]
            ok = worse_by <= bound
            if metric.startswith("op_"):
                ok = ok and max(iqrs) < bound
            all_pass = all_pass and ok
            spread = quartile_spread([row[metric] for row in rows])
            print(
                f"| {name} | {metric} | {bound:.2f} | {med_odd:.4f} | {med_even:.4f} "
                f"| {worse_by:.1%} | {iqrs[0]:.1%} | {iqrs[1]:.1%} | {spread:.1%} "
                f"| {'PASS' if ok else 'FAIL'} |",
                flush=True,
            )
    return 0 if all_pass else 1


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(
            f"run.py: no program to measure: {SRC}/repro or {SPEC_PATH} is missing",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny design, 2 ops")
    parser.add_argument("--aa", type=int, metavar="N", help="A/A table over N runs")
    args = parser.parse_args(argv)

    if args.aa:
        if args.aa < 4:
            parser.error("--aa needs at least 4 runs (two per half)")
        return aa(spec, [args.workload] if args.workload else names, args.aa, args.seconds)
    if not args.workload:
        parser.error("--workload is required")

    sys.path.insert(0, str(SRC))
    # A terminated run still tears its daemon and scratch directories down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.trace:
        metrics, attempted, failed = traced_run(args.workload, args.seed, args.smoke)
        emit(spec, "per_layer", metrics, attempted, failed)
    else:
        metrics, attempted, failed = timed_run(
            args.workload, args.seed, args.seconds, args.smoke
        )
        emit(spec, "end_to_end", metrics, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())

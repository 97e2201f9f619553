"""Heterogeneous-computing evaluation (paper §V-C / roadmap).

The paper hides copies and kernels behind CUDA streams and notes that
"runtime profiling and visualization are slightly complicated and are left
to future work". The simulated device records every host/copy/kernel
operation with stream and duration; replaying the record under the CUDA
execution model yields the asynchronous makespan, so the overlap the design
achieves can be measured — closing that future-work item for the
reproduction. The engine issues on ``NUM_STREAMS`` (2) streams; this bench
overrides that constant to compare 1, 2 and 4.
"""

from unittest import mock

import pytest

from repro.core import Engine, parallel
from repro.gpu import Device
from repro.workloads import asap7

from .common import TABLE_DESIGNS, design


def run_with_streams(design_name: str, num_streams: int):
    device = Device()
    engine = Engine(mode="parallel", device=device)
    engine.add_rules(asap7.spacing_deck())
    with mock.patch.object(parallel, "NUM_STREAMS", num_streams):
        engine.check(design(design_name))
    return device.timeline().summarize()


@pytest.mark.parametrize("design_name", ["aes", "jpeg"])
@pytest.mark.parametrize("num_streams", [1, 2, 4])
def test_async_makespan(benchmark, design_name, num_streams):
    summary = benchmark.pedantic(
        run_with_streams, args=(design_name, num_streams), rounds=1, iterations=1
    )
    benchmark.extra_info["serial_s"] = round(summary.serial_seconds, 5)
    benchmark.extra_info["async_s"] = round(summary.async_seconds, 5)
    benchmark.extra_info["overlap_savings"] = round(summary.overlap_savings, 3)
    assert summary.async_seconds <= summary.serial_seconds + 1e-9


def test_overlap_print(benchmark, capsys):
    def table():
        lines = ["Async overlap (parallel spacing deck), CUDA-model replay:"]
        lines.append(
            f"{'design':<8} {'streams':>7} {'serial ms':>10} {'async ms':>9} {'hidden':>7}"
        )
        for design_name in TABLE_DESIGNS:
            for streams in (1, 2, 4):
                s = run_with_streams(design_name, streams)
                lines.append(
                    f"{design_name:<8} {streams:>7} {s.serial_seconds * 1e3:>10.2f} "
                    f"{s.async_seconds * 1e3:>9.2f} {s.overlap_savings * 100:>6.1f}%"
                )
        return "\n".join(lines)

    text = benchmark.pedantic(table, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(text)

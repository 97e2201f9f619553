"""The sequential oracle runs on the columnar buffers.

On the perf ledger's seed-7 jpeg@2 layout (all rectangles, no
magnification) a sequential check of the full deck reads every ring off its
``RingBuffer`` arrays: no ``Polygon`` view is built, the via descent enters
each definition at most once per resolution, and the pruning counters are
the ones the per-instance engine reported.
"""

import pytest

from repro.core import Engine, EngineOptions
from repro.core.sequential import SequentialBackend
from repro.gdsii import read_layout_bytes, write_bytes
from repro.layout import gdsii_from_layout
from repro.layout.cell import RingBuffer
from repro.workloads import asap7

from .test_columnar_ingest import ledger_dirty_jpeg

#: ``checks_run / checks_reused / pairs_considered / pairs_pruned_mbr`` of
#: the full deck at jpeg@2, seed 7 (unchanged since the per-instance engine).
COUNTERS = (44, 6302, 845, 458381)


@pytest.fixture(scope="module")
def jpeg2_stream():
    return write_bytes(gdsii_from_layout(ledger_dirty_jpeg(seed=7, scale=2)))


def fresh_layout(stream):
    layout = read_layout_bytes(stream)  # no view materialised yet
    layout.set_top("top")
    return layout


def test_full_deck_builds_no_polygon_view(jpeg2_stream, monkeypatch):
    layout = fresh_layout(jpeg2_stream)
    views = []
    polygon, polygons = RingBuffer.polygon, RingBuffer.polygons
    monkeypatch.setattr(
        RingBuffer, "polygon", lambda self, index: views.append(index) or polygon(self, index)
    )
    monkeypatch.setattr(RingBuffer, "polygons", lambda self: views.append(self) or polygons(self))
    with Engine(options=EngineOptions(mode="sequential", use_cache=False)) as engine:
        report = engine.check(layout, rules=asap7.full_deck())
    assert report.total_violations > 1000
    assert views == []
    buffers = [
        cell.rings(layer) for cell in layout.cells.values() for layer in cell.local_layers()
    ]
    assert buffers and all(rings._view is None for rings in buffers)
    stats = report.results[-1].stats
    names = ("checks_run", "checks_reused", "pairs_considered", "pairs_pruned_mbr")
    assert tuple(stats[name] for name in names) == COUNTERS
    assert stats["checks_refreshed"] == 0


def test_via_descent_enters_each_definition_once(jpeg2_stream, monkeypatch):
    layout = fresh_layout(jpeg2_stream)
    definitions = len(layout.topological_order())
    assert definitions == 20
    entered = []
    descend = SequentialBackend._descend
    monkeypatch.setattr(
        SequentialBackend,
        "_descend",
        lambda self, name, *args: entered.append(name) or descend(self, name, *args),
    )
    rule = next(r for r in asap7.full_deck() if r.name == "V1.M1.EN.1")
    SequentialBackend(layout).run(rule)
    # The per-parent descent took 90 steps here; one topological pass takes
    # at most one per definition. It enters all but FILLERx1, which holds no
    # via and is never near one.
    assert len(entered) == len(set(entered)) == 19
    assert "FILLERx1" not in entered

"""The via descent on the rectangle column against the ``Shape`` descent it
replaced.

``tests/reference_sequential.py`` keeps the descent that carried every
pending via as a ``Shape`` and judged every candidate set with
``procedures.satisfied``. On generated hierarchies (all 8 orientations,
AREFs, magnified placements, L-shaped vias and metals, margins and overlaps
planted at the rule value and one either side of it) the engine must leave
the same survivors and report the same markers, for enclosure and minimum
overlap alike. The counting tests pin what the rectangle column buys: on an
all-rectangle layout the descent decides every via with the four
comparisons, and no rectangle ring's points are read by width, area,
self-spacing or the descent.
"""

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.checks import enclosure as enclosure_module
from repro.checks import sort_violations
from repro.checks import area as area_module
from repro.checks import width as width_module
from repro.checks.enclosure import EnclosureProcedures, enclosure_margin
from repro.core import Engine, EngineOptions
from repro.core.rules import layer
from repro.core.sequential import SequentialBackend
from repro.geometry import Rect
from repro.layout.cell import RingBuffer
from repro.util.profile import PhaseProfile
from repro.workloads import asap7

from .reference_resolution import (
    ENCLOSURE,
    METAL,
    MIN_OVERLAP,
    PLANTED_X,
    VIA,
    random_hierarchy,
)
from .reference_sequential import ShapeDescentBackend
from .test_columnar_ingest import ledger_dirty_jpeg
from .test_sequential_descent import Recording

COUNTERS = ("checks_run", "checks_reused", "checks_refreshed")


def rule_at(kind: str, offset: int):
    if kind == "enclosure":
        return layer(VIA).enclosure(layer(METAL)).greater_than(ENCLOSURE + offset)
    return layer(VIA).overlap(layer(METAL)).greater_than(MIN_OVERLAP + offset)


def resolve(backend, rule):
    """The markers, in canonical order, and the survivors the final check saw."""
    procedures = Recording(rule.kind)
    found = backend._cross_layer(
        rule.layer, rule.other_layer, rule.value, procedures, PhaseProfile()
    )
    return sort_violations(found), Counter(procedures.survivors)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    magnified=st.booleans(),
    kind=st.sampled_from(["enclosure", "min_overlap"]),
    offset=st.sampled_from([-1, 0, 1]),
)
def test_box_descent_equals_the_shape_descent(seed, magnified, kind, offset):
    layout = random_hierarchy(seed, magnified=magnified, edge_cases=True)
    rule = rule_at(kind, offset)
    engine, reference = SequentialBackend(layout), ShapeDescentBackend(layout)
    got, got_survivors = resolve(engine, rule)
    want, want_survivors = resolve(reference, rule)
    assert want  # the planted straddles always fail
    assert got == want
    assert got_survivors == want_survivors
    got_stats, want_stats = engine.stats(), reference.stats()
    assert [got_stats[c] for c in COUNTERS] == [want_stats[c] for c in COUNTERS]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("kind", ["enclosure", "min_overlap"])
def test_boundary_margins_flip_at_the_rule_value(kind, offset):
    """The planted margins sit at ``value - 1``, ``value`` and ``value + 1``
    of a rule at ``ENCLOSURE``; a rule one higher fails the middle third
    too, one lower passes the first third too."""
    layout = random_hierarchy(0, magnified=False, edge_cases=True)
    rule = rule_at(kind, offset)
    found, _ = resolve(SequentialBackend(layout), rule)
    assert found == resolve(ShapeDescentBackend(layout), rule)[0]
    # The top's cluster sits at (PLANTED_X, 3000), clear of everything random.
    cluster = Rect(PLANTED_X - 20, 3000 - 20, PLANTED_X + 500, 3000 + 200)
    marked = sorted(v.measured for v in found if cluster.contains_rect(v.region))
    if kind == "enclosure":
        # Seven vias per margin (4 + 2 + 1 L), plus the two straddles at 0.
        expected = [0, 0] + [m for m in (4, 5, 6) if m < rule.value for _ in range(7)]
    else:
        expected = [60] if 60 < rule.value else []
    assert marked == sorted(expected)


@pytest.fixture(scope="module")
def jpeg2():
    return ledger_dirty_jpeg(seed=7, scale=2)


class _Scope:
    """Wraps functions so that a spy can tell whether one of them is running."""

    def __init__(self) -> None:
        self.depth = 0
        self.entered = Counter()

    def enter(self, fn):
        def wrapped(*args, **kwargs):
            self.entered[fn.__name__] += 1
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1

        return wrapped


ENCLOSURE_RULES = [rule for rule in asap7.full_deck() if rule.kind.value == "enclosure"]


def test_all_rectangle_descent_never_asks_for_a_margin(jpeg2, monkeypatch):
    scope = _Scope()
    margins, satisfied = [], []

    def counting_margin(via, metal):
        if scope.depth:
            margins.append((via, metal))
        return enclosure_margin(via, metal)

    inner_satisfied = EnclosureProcedures.satisfied

    def counting_satisfied(self, via, metals, value):
        satisfied.append(via)
        return inner_satisfied(self, via, metals, value)

    monkeypatch.setattr(enclosure_module, "enclosure_margin", counting_margin)
    monkeypatch.setattr(EnclosureProcedures, "satisfied", counting_satisfied)
    monkeypatch.setattr(SequentialBackend, "_descend", scope.enter(SequentialBackend._descend))
    assert len(ENCLOSURE_RULES) == 3
    found = [SequentialBackend(jpeg2).run(rule) for rule in ENCLOSURE_RULES]
    assert scope.entered["_descend"] > 3
    assert satisfied == [] and margins == []
    # Same markers as the Shape descent, which asked ``satisfied`` thousands
    # of times (so the spy does see the calls it counts).
    assert found == [ShapeDescentBackend(jpeg2).run(rule) for rule in ENCLOSURE_RULES]
    assert len(satisfied) > 1000


def test_rectangle_rings_are_never_read_as_points(jpeg2, monkeypatch):
    scope = _Scope()
    read = []
    points = RingBuffer.points

    def counting_points(self, index, row=None):
        if scope.depth and self.rect_flags()[index]:
            read.append((self, index))
        return points(self, index, row)

    monkeypatch.setattr(RingBuffer, "points", counting_points)
    monkeypatch.setattr(width_module, "check_ring_width", scope.enter(width_module.check_ring_width))
    monkeypatch.setattr(area_module, "check_ring_area", scope.enter(area_module.check_ring_area))
    for name in ("_self_pairs", "_descend"):
        monkeypatch.setattr(SequentialBackend, name, scope.enter(getattr(SequentialBackend, name)))
    with Engine(options=EngineOptions(mode="sequential", use_cache=False)) as engine:
        report = engine.check(jpeg2, rules=asap7.full_deck())
    assert report.total_violations > 1000
    assert set(scope.entered) == {"check_ring_width", "check_ring_area", "_self_pairs", "_descend"}
    assert read == []

"""The sequential oracle is integer-exact and object-light, and decides as before.

The references in this file are the implementations the engine ran before
the window pull-back went integer and the distance checks moved to
``Polygon.edge_rows``: ``Fraction`` arithmetic over all four window corners,
and ``Edge`` objects with a three-pass point location. The engine must agree
with them on every input, and must not need them on a rigid layout.
"""

import fractions
import math
import random
from fractions import Fraction

import pytest

from repro.checks import enclosure_margin
from repro.core.engine import Engine, EngineOptions
from repro.errors import GeometryError
from repro.geometry import Point, Polygon, Rect, Transform
from repro.hierarchy.query import pull_back_window
from repro.workloads import asap7, build_design

ORIENTATIONS = [(rotation, mirror) for rotation in (0, 90, 180, 270) for mirror in (False, True)]


# -- (a) window pull-back ------------------------------------------------------


def exact_pull_back(placement, window):
    """The exact, possibly fractional, inverse image: adjugate over determinant."""
    a, b, c, d = placement._matrix
    det = Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c)
    inv = (Fraction(d) / det, Fraction(-b) / det, Fraction(-c) / det, Fraction(a) / det)
    xs, ys = [], []
    for x, y in (
        (window.xlo, window.ylo),
        (window.xhi, window.yhi),
        (window.xlo, window.yhi),
        (window.xhi, window.ylo),
    ):
        px, py = Fraction(x - placement.dx), Fraction(y - placement.dy)
        xs.append(inv[0] * px + inv[1] * py)
        ys.append(inv[2] * px + inv[3] * py)
    return min(xs), min(ys), max(xs), max(ys)


def random_windows(rng, count):
    """Windows around the origin: solid, degenerate lines and single points."""
    for _ in range(count):
        x, y = rng.randint(-5000, 5000), rng.randint(-5000, 5000)
        w, h = rng.choice([0, rng.randint(0, 900)]), rng.choice([0, rng.randint(0, 900)])
        yield Rect(x, y, x + w, y + h)


class TestPullBackWindow:
    @pytest.mark.parametrize("rotation,mirror", ORIENTATIONS)
    def test_rigid_placements_match_the_fraction_reference(self, rotation, mirror):
        rng = random.Random(f"pull-back-{rotation}-{mirror}")
        for window in random_windows(rng, 200):
            placement = Transform(
                rng.randint(-5000, 5000), rng.randint(-5000, 5000), rotation, mirror
            )
            result = pull_back_window(placement, window)
            assert all(type(v) is int for v in result)
            assert result == Rect(*exact_pull_back(placement, window))
            assert placement.apply_rect(result) == window

    @pytest.mark.parametrize("magnification", [Fraction(1, 2), 2, Fraction(3, 2)])
    @pytest.mark.parametrize("rotation,mirror", ORIENTATIONS)
    def test_magnified_placements_round_outward(self, rotation, mirror, magnification):
        rng = random.Random(f"pull-back-{rotation}-{mirror}-{magnification}")
        for window in random_windows(rng, 50):
            placement = Transform(
                rng.randint(-500, 500), rng.randint(-500, 500), rotation, mirror, magnification
            )
            xlo, ylo, xhi, yhi = exact_pull_back(placement, window)
            result = pull_back_window(placement, window)
            assert all(type(v) is int for v in result)
            # The tightest integer superset of the exact image.
            assert result == Rect(
                math.floor(xlo), math.floor(ylo), math.ceil(xhi), math.ceil(yhi)
            )


# -- (b) enclosure margins and point location ------------------------------------


def reference_contains_point(polygon, p):
    """Boundary pass, then the crossing number, each over fresh Edge objects."""
    for e in polygon.edges():
        lo, hi = e.span
        if e.is_vertical:
            if p.x == e.start.x and lo <= p.y <= hi:
                return None  # on the boundary
        elif p.y == e.start.y and lo <= p.x <= hi:
            return None
    crossings = 0
    for e in polygon.edges():
        if e.is_vertical:
            lo, hi = e.span
            if lo <= p.y < hi and e.start.x > p.x:
                crossings += 1
    return crossings % 2 == 1


def reference_enclosure_margin(via, metal):
    """``enclosure_margin`` over Edge objects, as it ran before the row table."""
    if not metal.mbr.contains_rect(via.mbr):
        return None
    metal_edges = metal.edges()
    worst = None
    for via_edge in via.edges():
        nx, ny = via_edge.interior_side
        best = None
        for metal_edge in metal_edges:
            if metal_edge.orientation is not via_edge.orientation:
                continue
            if via_edge.projection_overlap(metal_edge) <= 0:
                continue
            delta = metal_edge.fixed_coordinate - via_edge.fixed_coordinate
            signed = delta * -(nx + ny)
            if signed < 0:
                continue
            if best is None or signed < best:
                best = signed
        if best is None:
            return None
        if worst is None or best < worst:
            worst = best
    for vertex in via.vertices:
        if reference_contains_point(metal, vertex) is False:
            return None
    return worst


def rect(xlo, ylo, xhi, yhi):
    return Polygon.from_rect_coords(xlo, ylo, xhi, yhi)


#: Landing shapes inside [0, 60] x [0, 60].
METALS = {
    "box": rect(0, 0, 60, 60),
    "L": Polygon([(0, 0), (0, 60), (20, 60), (20, 20), (60, 20), (60, 0)]),
    "T": Polygon([(0, 40), (0, 60), (60, 60), (60, 40), (40, 40), (40, 0), (20, 0), (20, 40)]),
    "U": Polygon([(0, 0), (0, 60), (20, 60), (20, 20), (40, 20), (40, 60), (60, 60), (60, 0)]),
}


def all_orientations(via, metal):
    for rotation, mirror in ORIENTATIONS:
        placement = Transform(37, -11, rotation, mirror)
        yield via.transformed(placement), metal.transformed(placement)


class TestEnclosureMargin:
    @pytest.mark.parametrize("shape", sorted(METALS))
    def test_random_vias_match_the_edge_object_reference(self, shape):
        rng = random.Random(f"enclosure-{shape}")
        metal = METALS[shape]
        outcomes = set()
        for _ in range(150):
            x, y = rng.randint(-6, 58), rng.randint(-6, 58)
            via = rect(x, y, x + rng.randint(1, 24), y + rng.randint(1, 24))
            expected = reference_enclosure_margin(via, metal)
            outcomes.add(expected is None)
            for placed_via, placed_metal in all_orientations(via, metal):
                assert enclosure_margin(placed_via, placed_metal) == expected
        assert outcomes == {True, False}  # both enclosed and rejected vias were drawn

    @pytest.mark.parametrize(
        "via,metal,expected",
        [
            (rect(10, 10, 14, 14), METALS["box"], 10),
            (rect(0, 30, 4, 34), METALS["box"], 0),  # touching the boundary
            (rect(58, 30, 64, 34), METALS["box"], None),  # poking out
            (rect(5, 5, 15, 15), METALS["L"], 5),
            (rect(15, 15, 25, 25), METALS["L"], None),  # one corner in the cut-away
            (rect(10, 30, 30, 50), METALS["U"], None),  # two corners in the notch
            # Corners in both arms: edge margins and corner location alone do
            # not see the notch between them. Known, and unchanged.
            (rect(10, 30, 50, 50), METALS["U"], 10),
            (rect(22, 22, 38, 30), METALS["U"], None),  # wholly inside the notch
            (rect(24, 4, 36, 16), METALS["U"], 4),
            (
                Polygon([(2, 2), (2, 18), (10, 18), (10, 10), (18, 10), (18, 2)]),
                METALS["L"],
                2,
            ),
        ],
    )
    def test_named_cases_in_every_orientation(self, via, metal, expected):
        assert reference_enclosure_margin(via, metal) == expected
        for placed_via, placed_metal in all_orientations(via, metal):
            assert enclosure_margin(placed_via, placed_metal) == expected

    def test_bad_edges_raise_as_edge_orientation_did(self):
        diagonal = Polygon([(0, 0), (0, 40), (40, 40), (30, 0)], validate=False)
        spike = Polygon([(0, 0), (0, 40), (0, 40), (40, 40), (40, 0)], validate=False)
        for metal in (diagonal, spike):
            with pytest.raises(GeometryError):
                reference_enclosure_margin(rect(10, 10, 14, 14), metal)
            with pytest.raises(GeometryError):
                enclosure_margin(rect(10, 10, 14, 14), metal)


class TestContainsPoint:
    @pytest.mark.parametrize("shape", sorted(METALS))
    def test_one_pass_location_matches_the_three_pass_reference(self, shape):
        for rotation, mirror in ORIENTATIONS:
            polygon = METALS[shape].transformed(Transform(0, 0, rotation, mirror))
            box = polygon.mbr.inflated(2)
            for x in range(box.xlo, box.xhi + 1, 2):
                for y in range(box.ylo, box.yhi + 1, 2):
                    expected = reference_contains_point(polygon, Point(x, y))
                    for include_boundary in (True, False):
                        want = include_boundary if expected is None else expected
                        assert (
                            polygon.contains_point(
                                Point(x, y), include_boundary=include_boundary
                            )
                            is want
                        )


# -- (c) work bound ---------------------------------------------------------------


def test_sequential_check_of_a_rigid_layout_builds_no_fractions(monkeypatch):
    layout = build_design("jpeg", 1)
    built = []
    real_new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    with Engine(options=EngineOptions(mode="sequential", use_cache=False)) as engine:
        report = engine.check(layout, rules=asap7.full_deck())
    monkeypatch.undo()

    assert built == []
    # Which pairs are swept, pruned and memoised is the algorithm; these are
    # the counts the Fraction/Edge-object engine produced on this design.
    stats = report.results[-1].stats
    assert (
        stats["checks_run"],
        stats["checks_reused"],
        stats["pairs_considered"],
        stats["pairs_pruned_mbr"],
    ) == (39, 1620, 221, 30836)

import itertools
import random

from repro.checks import coloring
from repro.checks.base import ViolationKind
from repro.checks.coloring import check_two_colorable, conflict_edges, two_color
from repro.checks.edges import spacing_regions
from repro.core import Engine
from repro.core.rules import layer
from repro.geometry import Polygon, Rect, Transform
from repro.layout import CellReference, Layout
from repro.layout.flatten import polygon_rings

from .violation_rows import as_violations


def rect(x1, y1, x2, y2):
    return Polygon.from_rect_coords(x1, y1, x2, y2)


def chain(n, gap=5, width=10):
    """n wires in a row, each ``gap`` from the next (a path graph)."""
    polys = []
    x = 0
    for _ in range(n):
        polys.append(rect(x, 0, x + width, 100))
        x += width + gap
    return polys


class TestConflictGraph:
    def test_chain_edges(self):
        polys = chain(4, gap=5)
        edges = conflict_edges(polygon_rings(polys), 8)
        assert sorted((i, j) for i, j, _, _ in edges) == [(0, 1), (1, 2), (2, 3)]

    def test_distant_shapes_no_edges(self):
        polys = chain(3, gap=50)
        assert conflict_edges(polygon_rings(polys), 8) == []

    def test_edges_come_in_index_order(self):
        # The BFS coloring follows the edge order, so it must not depend on
        # the order the MBR sweep happens to report pairs in.
        polys = [rect(15 * (k % 7), 120 * (k // 7), 15 * (k % 7) + 10, 120 * (k // 7) + 100)
                 for k in range(21)]
        edges = [(i, j) for i, j, _, _ in conflict_edges(polygon_rings(polys), 8)]
        assert len(edges) == 18 and edges == sorted(edges)

    def test_edge_carries_min_distance(self):
        polys = [rect(0, 0, 10, 100), rect(15, 0, 25, 100)]
        edges = conflict_edges(polygon_rings(polys), 8)
        assert edges[0][3] == 5


class TestTwoColoring:
    def test_chain_is_bipartite(self):
        polys = chain(6, gap=5)
        colors, conflicts = two_color(polygon_rings(polys), 8)
        assert conflicts == []
        assert colors == [0, 1, 0, 1, 0, 1]

    def test_triangle_is_not(self):
        # Three wires mutually within the color spacing: vertical pair plus
        # a horizontal wire close to both.
        polys = [
            rect(0, 0, 10, 100),
            rect(15, 0, 25, 100),
            rect(0, 105, 25, 115),
        ]
        _, conflicts = two_color(polygon_rings(polys), 8)
        assert len(conflicts) == 1  # one odd-cycle-closing edge

    def test_isolated_shapes_colored(self):
        polys = [rect(0, 0, 10, 10), rect(1000, 0, 1010, 10)]
        colors, conflicts = two_color(polygon_rings(polys), 8)
        assert conflicts == [] and colors == [0, 0]

    def test_empty(self):
        colors, conflicts = two_color(polygon_rings([]), 8)
        assert colors == [] and conflicts == []


class TestCheck:
    def test_violation_kind_and_values(self):
        polys = [
            rect(0, 0, 10, 100),
            rect(15, 0, 25, 100),
            rect(0, 105, 25, 115),
        ]
        violations = as_violations(check_two_colorable(polygon_rings(polys), 7, 8))
        assert len(violations) == 1
        v = violations[0]
        assert v.kind is ViolationKind.COLOR
        assert v.required == 8 and v.measured == 5

    def test_bipartite_layer_passes(self):
        assert check_two_colorable(polygon_rings(chain(10, gap=5)), 7, 8) == []


class TestEngineIntegration:
    def build(self, odd: bool) -> Layout:
        layout = Layout("mp")
        cellule = layout.new_cell("cellule")
        cellule.add_polygon(1, rect(0, 0, 10, 100))
        cellule.add_polygon(1, rect(15, 0, 25, 100))
        if odd:
            cellule.add_polygon(1, rect(0, 105, 25, 115))
        top = layout.new_cell("top")
        top.add_reference(CellReference("cellule", Transform()))
        top.add_reference(CellReference("cellule", Transform(dx=2000)))
        layout.set_top("top")
        return layout

    def test_dsl_and_detection(self):
        rule = layer(1).same_mask_spacing().greater_than(8)
        report = Engine(mode="sequential").check(self.build(odd=True), rules=[rule])
        assert report.results[0].num_violations == 2  # one per instance

    def test_bipartite_design_passes(self):
        rule = layer(1).same_mask_spacing().greater_than(8)
        report = Engine(mode="sequential").check(self.build(odd=False), rules=[rule])
        assert report.passed

    def test_modes_agree(self):
        rule = layer(1).same_mask_spacing().greater_than(8)
        layout = self.build(odd=True)
        rs = Engine(mode="sequential").check(layout, rules=[rule])
        rp = Engine(mode="parallel").check(layout, rules=[rule])
        assert rs.results[0].violation_set() == rp.results[0].violation_set()

    def test_cross_instance_conflict_chain(self):
        # Two instances placed so close their conflict graphs join into one
        # odd cycle across the instance boundary.
        layout = Layout("cross")
        cellule = layout.new_cell("cellule")
        cellule.add_polygon(1, rect(0, 0, 10, 100))
        top = layout.new_cell("top")
        top.add_reference(CellReference("cellule", Transform()))
        top.add_reference(CellReference("cellule", Transform(dx=15)))
        top.add_polygon(1, rect(0, 105, 25, 115))  # closes the triangle
        layout.set_top("top")
        rule = layer(1).same_mask_spacing().greater_than(8)
        report = Engine(mode="sequential").check(layout, rules=[rule])
        assert report.results[0].num_violations == 1

    def test_designs_m3_is_decomposable(self, uart_layout):
        from repro.workloads import asap7

        # Clean designs keep >= spacing everywhere, so the conflict graph is
        # empty and trivially 2-colorable at the spacing value.
        rule = layer(asap7.M3).same_mask_spacing().greater_than(
            asap7.SPACING_RULES[asap7.M3]
        )
        assert Engine(mode="sequential").check(uart_layout, rules=[rule]).passed


def rendered_conflicts(count, edges):
    """The markers docs/algorithms.md §6b specifies, rendered directly from
    the polygon count and the conflict edge set: neighbours in ascending
    index; the lowest uncolored polygon gets 0 and goes on a stack; a popped
    polygon gives each uncolored neighbour, in ascending order, the other
    color and pushes it; an edge whose ends match is a marker."""
    neighbours = [sorted({j for i, j in edges if i == v} | {i for i, j in edges if j == v})
                  for v in range(count)]
    color = {}
    for start in range(count):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            node = stack.pop()
            for other in neighbours[node]:
                if other not in color:
                    color[other] = 1 - color[node]
                    stack.append(other)
    return sorted((i, j) for i, j in edges if color[i] == color[j])


class TestMarkersBySpecification:
    """Which conflicts a layer that is not 2-colorable reports depends on the
    canonical polygon order and the edge set alone, never on the order the
    MBR sweep pairs boxes in."""

    def test_every_graph_up_to_five_nodes(self, monkeypatch):
        """Every edge set on 1 to 5 polygons, each with the candidate pairs
        in a different shuffled order; the spacing measurement is stubbed
        so that exactly the chosen pairs conflict."""
        chosen = set()
        polys = [rect(0, 20 * k, 10, 20 * k + 10) for k in range(5)]
        # Each ring stands for its own index: the stubbed edge-row table of
        # ring k is k itself.
        rings = [(k, p.mbr) for k, p in enumerate(polys)]
        rng = random.Random(0)

        def every_pair_shuffled(rects):
            pairs = list(itertools.combinations(range(len(rects)), 2))
            rng.shuffle(pairs)
            return iter(pairs)

        def conflicts_if_chosen(a, b, spacing):
            return [(Rect(0, 0, 1, 1), 1)] if (a, b) in chosen else []

        monkeypatch.setattr(coloring, "iter_overlapping_pairs", every_pair_shuffled)
        monkeypatch.setattr(coloring, "edge_rows_of", lambda ring: ring)
        monkeypatch.setattr(coloring, "spacing_regions", conflicts_if_chosen)
        checked = 0
        for count in range(1, 6):
            every = list(itertools.combinations(range(count), 2))
            for mask in range(1 << len(every)):
                chosen = {pair for bit, pair in enumerate(every) if mask >> bit & 1}
                _, conflicts = two_color(rings[:count], 8)
                assert [(i, j) for i, j, _, _ in conflicts] == rendered_conflicts(count, chosen)
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024

    def test_random_layouts_with_a_shuffled_sweep(self, monkeypatch):
        """Real geometry: rectangles on a small grid in canonical order, the
        edge set measured pair by pair, the sweep's pairs shuffled."""
        sweep = coloring.iter_overlapping_pairs
        rng = random.Random(1)

        def shuffled(rects):
            pairs = list(sweep(rects))
            rng.shuffle(pairs)
            return iter(pairs)

        monkeypatch.setattr(coloring, "iter_overlapping_pairs", shuffled)
        nontrivial = 0
        for _ in range(80):
            polys = []
            for _ in range(rng.randint(5, 12)):
                x, y = rng.randint(0, 40), rng.randint(0, 40)
                polys.append(rect(x, y, x + rng.randint(3, 8), y + rng.randint(3, 8)))
            polys.sort(key=lambda p: (p.mbr, p.canonical_vertices()))
            edges = {
                (i, j)
                for i, j in itertools.combinations(range(len(polys)), 2)
                if spacing_regions(polys[i].edge_rows(), polys[j].edge_rows(), 9)
            }
            _, conflicts = two_color(polygon_rings(polys), 9)
            expected = rendered_conflicts(len(polys), edges)
            assert [(i, j) for i, j, _, _ in conflicts] == expected
            nontrivial += bool(expected)
        assert nontrivial >= 10

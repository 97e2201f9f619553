"""Additional coverage: statistics, flatten generators, and layer views on
the synthesized benchmark designs (integration-grade invariants)."""

from repro.hierarchy import HierarchyTree
from repro.hierarchy.layerview import LayerView
from repro.layout import compute_stats, count_flat_polygons, flatten, iter_flat_polygons
from repro.workloads import asap7, build_design


class TestDesignStatistics:
    def test_counts_consistent_with_flatten(self, ibex_layout):
        counted = count_flat_polygons(ibex_layout)
        materialized = {
            layer: len(polys) for layer, polys in flatten(ibex_layout).items()
        }
        assert counted == materialized

    def test_iter_flat_is_lazy_and_complete(self, ibex_layout):
        total = sum(1 for _ in iter_flat_polygons(ibex_layout))
        assert total == compute_stats(ibex_layout).num_flat_polygons

    def test_reuse_factor_above_one(self, ibex_layout):
        stats = compute_stats(ibex_layout)
        assert stats.reuse_factor > 1.5  # std cells are heavily reused

    def test_all_metal_layers_populated(self, ibex_layout):
        counts = count_flat_polygons(ibex_layout)
        for metal in asap7.METAL_LAYERS:
            assert counts.get(metal, 0) > 0
        for via in asap7.VIA_LAYERS:
            assert counts.get(via, 0) > 0


class TestHierarchyOnDesigns:
    def test_layer_mbrs_cover_flat_geometry(self, ibex_layout):
        tree = HierarchyTree(ibex_layout)
        flat = flatten(ibex_layout)
        for layer, polys in flat.items():
            top_mbr = tree.top_mbr(layer)
            for polygon in polys:
                assert top_mbr.contains_rect(polygon.mbr), layer

    def test_layer_view_duplication_bounded(self, ibex_layout):
        view = LayerView(ibex_layout)
        assert view.duplication_factor() <= len(ibex_layout.layers())

    def test_inverted_index_counts_definitions(self, ibex_layout):
        view = LayerView(ibex_layout)
        local_m1 = sum(
            len(cell.polygons(asap7.M1)) for cell in ibex_layout.cells.values()
        )
        assert view.element_count(asap7.M1) == local_m1

    def test_top_level_items_cover_m2(self, ibex_layout):
        tree = HierarchyTree(ibex_layout)
        # M2 lives only at top level (router wires), so items == polygons.
        items = tree.top_level_items(asap7.M2)
        assert items == []  # wires are local polygons of top, not child refs
        local = ibex_layout.cell("top").polygons(asap7.M2)
        assert len(local) == count_flat_polygons(ibex_layout)[asap7.M2]


class TestScaleConsistency:
    def test_paper_scale_grows_every_layer(self):
        ci = count_flat_polygons(build_design("uart", "ci"))
        paper = count_flat_polygons(build_design("uart", "paper"))
        for layer, count in ci.items():
            assert paper.get(layer, 0) > count, layer

"""Layout diffing: dirty layers, dirty rects, and per-rule regions."""

import pytest

from repro.core.diff import FULL_RECHECK, diff_layouts
from repro.core.plan import interaction_distance
from repro.core.rules import layer, polygons
from repro.geometry import Polygon, Rect, Transform
from repro.layout import Layout
from repro.layout.cell import CellReference, Repetition
from repro.spatial.regions import RegionSet
from repro.workloads import build_design


def small_layout():
    layout = Layout("diffme")
    child = layout.new_cell("child")
    child.add_polygon(1, Polygon.from_rect_coords(0, 0, 40, 10))
    top = layout.new_cell("top")
    top.add_polygon(1, Polygon.from_rect_coords(0, 50, 100, 60))
    top.add_polygon(2, Polygon.from_rect_coords(0, 80, 100, 90))
    top.add_reference(CellReference("child", Transform(dx=200, dy=0)))
    top.add_reference(CellReference("child", Transform(dx=400, dy=0)))
    layout.set_top("top")
    return layout


class TestDiffLayouts:
    def test_identical_builds_are_clean(self):
        diff = diff_layouts(build_design("uart"), build_design("uart"))
        assert diff.is_clean
        assert diff.old_digests == diff.new_digests

    def test_small_identical_clean(self):
        assert diff_layouts(small_layout(), small_layout()).is_clean

    def test_added_top_polygon(self):
        old, new = small_layout(), small_layout()
        new.top_cell().add_polygon(1, Polygon.from_rect_coords(10, 100, 30, 120))
        diff = diff_layouts(old, new)
        assert diff.dirty_layers() == [1]
        assert diff.dirty[1].rects == (Rect(10, 100, 30, 120),)

    def test_removed_top_polygon(self):
        old, new = small_layout(), small_layout()
        removed = new.top_cell().remove_polygon(2, -1)
        diff = diff_layouts(old, new)
        assert diff.dirty_layers() == [2]
        assert diff.dirty[2].overlaps(removed.mbr)

    def test_given_trees_and_digests_are_used_and_carried(self):
        from repro.core.packstore import layer_geometry_digest
        from repro.hierarchy.tree import HierarchyTree

        old, new = small_layout(), small_layout()
        new.top_cell().add_polygon(3, Polygon.from_rect_coords(10, 100, 30, 120))
        old_tree, new_tree = HierarchyTree(old), HierarchyTree(new)
        # Each side hands over digests of its own layers only; layer 3 of
        # the old version is filled in by the diff.
        old_digests = {L: layer_geometry_digest(old_tree, L) for L in old.layers()}
        new_digests = {L: layer_geometry_digest(new_tree, L) for L in new.layers()}
        diff = diff_layouts(
            old, new, old_tree=old_tree, new_tree=new_tree,
            old_digests=old_digests, new_digests=new_digests,
        )
        assert diff.old_tree is old_tree and diff.new_tree is new_tree
        plain = diff_layouts(old, new)
        assert (diff.old_digests, diff.new_digests) == (plain.old_digests, plain.new_digests)
        assert diff.dirty_layers() == plain.dirty_layers() == [3]
        assert plain.new_tree.layout is new

    def test_child_edit_dirties_every_instance(self):
        old, new = small_layout(), small_layout()
        new.cells["child"].add_polygon(1, Polygon.from_rect_coords(0, 20, 10, 30))
        diff = diff_layouts(old, new)
        assert diff.dirty_layers() == [1]
        # Local dirt at (0,20,10,30) appears under both placements.
        assert diff.dirty[1].overlaps(Rect(200, 20, 210, 30))
        assert diff.dirty[1].overlaps(Rect(400, 20, 410, 30))
        # ...and nowhere else: the untouched top wire stays clean.
        assert not diff.dirty[1].overlaps(Rect(0, 50, 100, 60))

    def test_moved_instance_dirties_both_placements(self):
        old, new = small_layout(), small_layout()
        cell = new.cells["top"]
        moved = CellReference("child", Transform(dx=600, dy=0))
        cell.references[:] = [cell.references[0], moved]
        diff = diff_layouts(old, new)
        assert diff.dirty_layers() == [1]
        assert diff.dirty[1].overlaps(Rect(400, 0, 440, 10))  # old placement
        assert diff.dirty[1].overlaps(Rect(600, 0, 640, 10))  # new placement
        assert not diff.dirty[1].overlaps(Rect(200, 0, 240, 10))  # untouched

    def test_added_aref_dirties_grid_mbr(self):
        old, new = small_layout(), small_layout()
        new.cells["top"].add_reference(
            CellReference(
                "child",
                Transform(dx=0, dy=200),
                repetition=Repetition(
                    columns=3, rows=1, column_step=(100, 0), row_step=(0, 0)
                ),
            )
        )
        diff = diff_layouts(old, new)
        assert diff.dirty[1].overlaps(Rect(0, 200, 240, 210))

    def test_different_top_cells_degrade_to_full(self):
        old, new = small_layout(), small_layout()
        other = new.new_cell("other_top")
        other.add_polygon(1, Polygon.from_rect_coords(0, 0, 10, 10))
        new.set_top("other_top")
        diff = diff_layouts(old, new)
        assert diff.full
        spacing = layer(1).spacing().greater_than(5)
        assert diff.regions_for(spacing) is FULL_RECHECK


class TestRegionsForRule:
    def edited(self):
        old, new = small_layout(), small_layout()
        new.top_cell().add_polygon(1, Polygon.from_rect_coords(10, 100, 30, 120))
        return diff_layouts(old, new)

    def test_clean_layer_rule_reuses_cached(self):
        diff = self.edited()
        assert diff.regions_for(layer(2).width().greater_than(5)) is None

    def test_spacing_halo_is_rule_value(self):
        diff = self.edited()
        regions = diff.regions_for(layer(1).spacing().greater_than(7))
        assert isinstance(regions, RegionSet)
        assert regions.rects == (Rect(3, 93, 37, 127),)

    def test_width_halo_is_zero(self):
        diff = self.edited()
        regions = diff.regions_for(layer(1).width().greater_than(7))
        assert regions.rects == (Rect(10, 100, 30, 120),)

    def test_coloring_rule_full_recheck(self):
        diff = self.edited()
        rule = layer(1).same_mask_spacing().greater_than(5)
        assert diff.regions_for(rule) is FULL_RECHECK

    def test_all_layer_rule_sees_every_dirty_layer(self):
        diff = self.edited()
        rule = polygons().is_rectilinear()
        regions = diff.regions_for(rule)
        assert regions.rects == (Rect(10, 100, 30, 120),)

    def test_enclosure_involves_both_layers(self):
        old, new = small_layout(), small_layout()
        new.top_cell().add_polygon(2, Polygon.from_rect_coords(10, 100, 30, 120))
        diff = diff_layouts(old, new)
        rule = layer(1).enclosure(layer(2)).greater_than(3)
        regions = diff.regions_for(rule)
        assert regions is not None and regions is not FULL_RECHECK
        assert regions.rects == (Rect(7, 97, 33, 123),)
        # Rule on two clean layers stays cached.
        assert diff.regions_for(layer(3).enclosure(layer(4)).greater_than(3)) is None


class TestInteractionDistance:
    @pytest.mark.parametrize(
        "rule, expected",
        [
            (layer(1).width().greater_than(9), 0),
            (layer(1).area().greater_than(9), 0),
            (polygons().is_rectilinear(), 0),
            (polygons().ensures(len), 0),
            (layer(1).overlap(layer(2)).greater_than(9), 0),
            (layer(1).spacing().greater_than(9), 9),
            (layer(1).corner_spacing().greater_than(9), 9),
            (layer(1).enclosure(layer(2)).greater_than(9), 9),
            (layer(1).same_mask_spacing().greater_than(9), None),
        ],
    )
    def test_per_kind_halo(self, rule, expected):
        assert interaction_distance(rule) == expected

    def test_every_kind_declares_one(self):
        from repro.core.plan import KIND_SPECS

        for kind, spec in KIND_SPECS.items():
            assert callable(spec.interaction), kind

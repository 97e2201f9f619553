"""Layer-wise MBR-augmented hierarchy tree (paper §IV-A).

OpenDRC never flattens: the hierarchy tree mirrors the cell reference DAG,
and every cell is augmented with one minimum bounding rectangle **per
layer** covering all geometry of that layer anywhere in the cell's subtree
(local polygons plus, recursively, referenced cells). A cell spanning
multiple layers therefore has multiple MBRs, and a layer range query can
prune any subtree whose MBR for the queried layer is empty or disjoint from
the query window.

MBRs are computed in one bottom-up pass (children before parents). AREF
references are handled without expansion: the union of a rect translated
over a regular grid is the rect stretched across the grid's offset extent.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..geometry import EMPTY_RECT, Rect, Transform
from ..layout.cell import Cell, CellReference
from ..layout.library import Layout


#: One placement of a direct child: (cell name, placement, placed layer MBR).
PlacedChild = Tuple[str, Transform, Rect]


class HierarchyTree:
    """The layout's reference DAG augmented with per-layer subtree MBRs."""

    def __init__(self, layout: Layout, *, top: Optional[str] = None) -> None:
        layout.validate()
        self.layout = layout
        self.top = layout.cell(top) if top else layout.top_cell()
        #: cell name -> layer -> subtree MBR in that cell's local coordinates
        self._layer_mbrs: Dict[str, Dict[int, Rect]] = {}
        self._placed_children: Dict[Tuple[str, int], List[PlacedChild]] = {}
        self._compute_mbrs()

    # -- construction -------------------------------------------------------

    def _compute_mbrs(self) -> None:
        for cell in self.layout.topological_order():
            mbrs: Dict[int, Rect] = {}
            for layer in cell.local_layers():
                table = cell.rings(layer).mbrs  # xlo, ylo, xhi, yhi per ring
                mbrs[layer] = (
                    Rect(min(table[0::4]), min(table[1::4]), max(table[2::4]), max(table[3::4]))
                    if table
                    else EMPTY_RECT
                )
            for ref in cell.references:
                child_mbrs = self._layer_mbrs[ref.cell_name]
                for layer, child_rect in child_mbrs.items():
                    placed = reference_mbr(ref, child_rect)
                    mbrs[layer] = mbrs.get(layer, EMPTY_RECT).union(placed)
            self._layer_mbrs[cell.name] = mbrs

    # -- queries ------------------------------------------------------------

    def layer_mbr(self, cell_name: str, layer: int) -> Rect:
        """Subtree MBR of ``layer`` under ``cell_name`` (local coordinates)."""
        return self._layer_mbrs[cell_name].get(layer, EMPTY_RECT)

    def cell_layers(self, cell_name: str) -> List[int]:
        """Layers present anywhere in the cell's subtree (sorted)."""
        return sorted(self._layer_mbrs[cell_name])

    def has_layer(self, cell_name: str, layer: int) -> bool:
        """True if the cell's subtree holds any geometry on ``layer``."""
        return not self.layer_mbr(cell_name, layer).is_empty

    def top_mbr(self, layer: int) -> Rect:
        """Chip-level MBR of one layer."""
        return self.layer_mbr(self.top.name, layer)

    # -- traversal -----------------------------------------------------------

    def iter_instances(
        self, *, layer: Optional[int] = None
    ) -> Iterator[Tuple[Cell, Transform]]:
        """All cell instances under the top, with accumulated transforms.

        With ``layer`` given, subtrees without that layer are pruned — the
        hierarchy descent of paper §IV-A.
        """

        def visit(cell: Cell, transform: Transform) -> Iterator[Tuple[Cell, Transform]]:
            yield cell, transform
            for ref in cell.references:
                if layer is not None and not self.has_layer(ref.cell_name, layer):
                    continue
                child = self.layout.cell(ref.cell_name)
                for placement in ref.placements():
                    yield from visit(child, transform.compose(placement))

        if layer is not None and not self.has_layer(self.top.name, layer):
            return iter(())
        return visit(self.top, Transform())

    def placed_children(self, cell_name: str, layer: int) -> List[PlacedChild]:
        """Every placement of a direct child holding ``layer``: (cell,
        placement, placed MBR in ``cell_name``'s frame), in reference order.

        Built once per (cell, layer); level items, the windowed gather and
        the range query all prune on this table. Lock-free like the digest
        memo: racing first uses build equal lists and one assignment wins.
        """
        key = (cell_name, layer)
        table = self._placed_children.get(key)
        if table is None:
            table = []
            for ref in self.layout.cell(cell_name).references:
                child_mbr = self.layer_mbr(ref.cell_name, layer)
                if child_mbr.is_empty:
                    continue
                for placement in ref.placements():
                    table.append((ref.cell_name, placement, placement.apply_rect(child_mbr)))
            self._placed_children[key] = table
        return table

    def top_level_items(self, layer: int) -> List[PlacedChild]:
        """Direct children of the top holding ``layer`` — the population the
        adaptive row partition operates on."""
        return self.placed_children(self.top.name, layer)


def reference_mbr(ref: CellReference, child_rect: Rect) -> Rect:
    """Placed MBR of a reference given the child's local MBR.

    AREFs are folded analytically: the union over a regular offset grid of a
    translated rect is the rect stretched over the offset extremes.
    """
    if child_rect.is_empty:
        return EMPTY_RECT
    base = ref.transform.apply_rect(child_rect)
    if ref.repetition is None:
        return base
    rep = ref.repetition
    last_col = (
        (rep.columns - 1) * rep.column_step[0],
        (rep.columns - 1) * rep.column_step[1],
    )
    last_row = ((rep.rows - 1) * rep.row_step[0], (rep.rows - 1) * rep.row_step[1])
    dxs = [0, last_col[0], last_row[0], last_col[0] + last_row[0]]
    dys = [0, last_col[1], last_row[1], last_col[1] + last_row[1]]
    return Rect(
        base.xlo + min(dxs),
        base.ylo + min(dys),
        base.xhi + max(dxs),
        base.yhi + max(dys),
    )

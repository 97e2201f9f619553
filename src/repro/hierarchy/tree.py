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

from array import array
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..geometry import EMPTY_RECT, Rect, Transform
from ..geometry.transform import IDENTITY_ROW, compose_rows, rigid_row, row_rect, row_transform
from ..layout.cell import Cell, CellReference, SourceToken
from ..layout.library import Layout


#: One placement of a direct child: (cell name, placement, placed layer MBR).
PlacedChild = Tuple[str, Transform, Rect]

#: Where one definition sits under the top: its rigid placements as integer
#: rows ``(a, b, c, d, dx, dy)`` six to a placement (see
#: :data:`repro.geometry.transform.Row`), and the magnified ones as transforms.
Placements = Tuple[array, List[Transform]]


class HierarchyTree:
    """The layout's reference DAG augmented with per-layer subtree MBRs."""

    def __init__(
        self,
        layout: Layout,
        *,
        top: Optional[str] = None,
        previous: Optional["HierarchyTree"] = None,
    ) -> None:
        cells = layout.validate()
        self.layout = layout
        self.top = layout.cell(top) if top else layout.top_cell()
        #: cell name -> layer -> subtree MBR in that cell's local coordinates
        self._layer_mbrs: Dict[str, Dict[int, Rect]] = {}
        self._placed_children: Dict[Tuple[str, int], List[PlacedChild]] = {}
        self._placements: Dict[int, Dict[str, Placements]] = {}
        #: Every cell's name, children before parents.
        self.order: List[str] = [cell.name for cell in cells]
        #: Each cell's index in :attr:`order`.
        self.position: Dict[str, int] = {name: i for i, name in enumerate(self.order)}
        #: Each cell's source token as this tree found it (``None``: built in
        #: memory or edited since read); what a next version's tree compares.
        self.tokens: Dict[str, Optional[SourceToken]] = {
            cell.name: cell.source_token for cell in cells
        }
        #: id(reference) -> (reference, its placed layer MBRs), for the
        #: references of the cells this tree computed: what the next
        #: version's tree reuses for a reference it carried. The entry holds
        #: the reference, so its id is not reused meanwhile. None in a tree
        #: built without ``previous``; filled only where ``previous``'s is
        #: not None, so a one-shot recheck (whose ``previous`` is cold)
        #: keeps none for a next version that will not come.
        self._placed_refs: Optional[Dict[int, Tuple[CellReference, Dict[int, Rect]]]] = None
        chained = previous is not None and previous._placed_refs is not None
        #: Layer -> the checkpoints of its digest
        #: (:func:`repro.core.packstore.layer_digests` keeps them), for the
        #: next version's digest to resume from; None (keep none) but in a
        #: tree whose ``previous`` had a ``previous`` itself, as above.
        self.digest_states: Optional[Dict[int, list]] = {} if chained else None
        #: Cell name -> the names it references, for the cells whose token
        #: this tree compared with ``previous``'s: carried for equal tokens.
        self._children: Dict[str, FrozenSet[str]] = {}
        self._compute_mbrs(cells, previous)

    # -- construction -------------------------------------------------------

    def _compute_mbrs(self, cells: List[Cell], previous: Optional["HierarchyTree"]) -> None:
        """One pass, children first. A cell whose token is the one ``previous``
        recorded, and whose children all took ``previous``'s MBRs, has the same
        subtree: it takes them too, and only the rest is computed.

        The rest reads each buffer's :meth:`~repro.layout.cell.RingBuffer.bounds`
        (one entry where a splice carried its prefix bounds) and, for a reference
        ``previous`` kept (the same object, copied over by the splice) whose
        child took ``previous``'s MBRs, that reference's placed MBRs."""
        shared: Set[str] = set()
        carried = previous._placed_refs if previous is not None else None
        if previous is not None:
            self._placed_refs = {}
        keep = self._placed_refs if carried is not None else None
        for cell in cells:
            name = cell.name
            token = self.tokens[name]
            if previous is not None and token is not None and previous.tokens.get(name) == token:
                # The same bytes: the same references, so the same children.
                children = previous._children.get(name)
                if children is None:
                    children = frozenset(ref.cell_name for ref in cell.references)
                self._children[name] = children
                if children <= shared:
                    self._layer_mbrs[name] = previous._layer_mbrs[name]
                    shared.add(name)
                    continue
            mbrs = {layer: cell.rings(layer).bounds() for layer in cell.local_layers()}
            for ref in cell.references:
                child_mbrs = self._layer_mbrs[ref.cell_name]
                if keep is None:
                    for layer, child_rect in child_mbrs.items():
                        placed = reference_mbr(ref, child_rect)
                        mbrs[layer] = mbrs.get(layer, EMPTY_RECT).union(placed)
                    continue
                entry = carried.get(id(ref)) if ref.cell_name in shared else None
                if entry is None:
                    entry = ref, {
                        layer: reference_mbr(ref, child_rect)
                        for layer, child_rect in child_mbrs.items()
                    }
                keep[id(ref)] = entry
                for layer, placed in entry[1].items():
                    mbrs[layer] = mbrs.get(layer, EMPTY_RECT).union(placed)
            self._layer_mbrs[name] = mbrs

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
                    table.append((ref.cell_name, placement, placed_rect(placement, child_mbr)))
            self._placed_children[key] = table
        return table

    def placements(self, layer: int) -> Dict[str, Placements]:
        """Where every definition holding ``layer`` sits under the top, with
        subtrees without the layer pruned (paper §IV-A): the top itself is
        the identity row, and a child's placements are its parents' composed
        with each of its references.

        Built once per layer in one parents-first pass over :attr:`order`, in
        integers; a placement under a magnification stays a ``Transform``
        (one that composes back to magnification 1 becomes a row again).
        Lock-free like :meth:`placed_children`.
        """
        table = self._placements.get(layer)
        if table is None:
            table = {}
            if self.has_layer(self.top.name, layer):
                table[self.top.name] = (array("q", IDENTITY_ROW), [])
            for name in reversed(self.order):
                placed = table.get(name)
                if placed is None:
                    continue
                rows, magnified = placed
                parents = [tuple(rows[k : k + 6]) for k in range(0, len(rows), 6)]
                for ref in self.layout.cell(name).references:
                    if not self.has_layer(ref.cell_name, layer):
                        continue
                    child_rows, child_magnified = table.setdefault(
                        ref.cell_name, (array("q"), [])
                    )
                    for placement in ref.placements():
                        if placement.preserves_distances:
                            inner = rigid_row(placement)
                            for outer in parents:
                                child_rows.extend(compose_rows(outer, inner))
                        else:
                            child_magnified.extend(
                                row_transform(outer).compose(placement) for outer in parents
                            )
                        for outer in magnified:
                            composed = outer.compose(placement)
                            if composed.preserves_distances:
                                child_rows.extend(rigid_row(composed))
                            else:
                                child_magnified.append(composed)
            self._placements[layer] = table
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
    base = placed_rect(ref.transform, child_rect)
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


def placed_rect(placement: Transform, rect: Rect) -> Rect:
    """``placement.apply_rect(rect)`` for a non-empty ``rect``: through its
    integer row (:func:`~repro.geometry.transform.row_rect`) where the
    placement is rigid, with no ``Point`` built."""
    if placement.preserves_distances:
        return row_rect(rigid_row(placement), rect)
    return placement.apply_rect(rect)

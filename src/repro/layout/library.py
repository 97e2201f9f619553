"""The hierarchical layout database.

A :class:`Layout` is a set of named cells, one of which is the top. The
hierarchy is a DAG (a cell may be instantiated many times but cycles are
illegal); :meth:`Layout.validate` enforces this, and
:meth:`Layout.topological_order` yields cells children-first, which is the
order bottom-up passes (MBR computation, memoised checking) need.

A layout read from a stream keeps its order (:meth:`Layout.keep_order`)
while every cell's source token holds, which it does only while the cell's
references are those it was read with, and no cell is added: each version
of a served layout computes it at most once, and a version whose cells and
reference lists a splice carried takes its predecessor's.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from ..errors import LayoutError
from .cell import Cell


class Layout:
    """A GDSII-library-level database of cells."""

    def __init__(
        self,
        name: str = "LIB",
        *,
        meters_per_unit: float = 1e-9,
        user_unit: float = 1e-3,
    ) -> None:
        self.name = name
        self.meters_per_unit = meters_per_unit
        self.user_unit = user_unit
        self.cells: Dict[str, Cell] = {}
        self._top_name: Optional[str] = None
        self._order: Optional[List[Cell]] = None

    # -- construction --------------------------------------------------------

    def add_cell(self, cell: Cell) -> Cell:
        """Register a cell; duplicate names are an error."""
        if cell.name in self.cells:
            raise LayoutError(f"duplicate cell name {cell.name!r}")
        self.cells[cell.name] = cell
        self._order = None
        return cell

    def new_cell(self, name: str) -> Cell:
        """Create, register, and return an empty cell."""
        return self.add_cell(Cell(name))

    def set_top(self, name: str) -> None:
        """Pin the top cell explicitly (otherwise inferred)."""
        if name not in self.cells:
            raise LayoutError(f"cannot set unknown cell {name!r} as top")
        self._top_name = name

    # -- lookups ---------------------------------------------------------------

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise LayoutError(f"no cell named {name!r} in layout {self.name!r}") from None

    def top_cell(self) -> Cell:
        """The hierarchy root: the pinned top, or the unique unreferenced cell."""
        if self._top_name is not None:
            return self.cells[self._top_name]
        roots = self.root_cells()
        if len(roots) != 1:
            raise LayoutError(
                f"layout {self.name!r} has {len(roots)} root cells "
                f"({[c.name for c in roots]}); call set_top()"
            )
        return roots[0]

    def root_cells(self) -> List[Cell]:
        """All cells never referenced by another cell."""
        referenced: Set[str] = set()
        for cell in self.cells.values():
            for ref in cell.references:
                referenced.add(ref.cell_name)
        return [c for c in self.cells.values() if c.name not in referenced]

    def layers(self) -> List[int]:
        """All layers with geometry anywhere in the database (sorted)."""
        found: Set[int] = set()
        for cell in self.cells.values():
            found.update(cell.local_layers())
        return sorted(found)

    # -- hierarchy traversal -----------------------------------------------------

    def validate(self) -> List[Cell]:
        """Check reference closure and acyclicity; raise LayoutError on failure.

        Returns :meth:`topological_order`, which the acyclicity check computes.
        A kept order was validated when it was computed: nothing is checked.
        """
        kept = self.kept_order()
        if kept is not None:
            return list(kept)
        for cell in self.cells.values():
            for ref in cell.references:
                if ref.cell_name not in self.cells:
                    raise LayoutError(
                        f"cell {cell.name!r} references undefined cell {ref.cell_name!r}"
                    )
        return self.topological_order()  # raises on cycles

    def kept_order(self) -> Optional[List[Cell]]:
        """The order :meth:`keep_order` kept, while it holds: the same cells,
        each with its source token (so its references as they were read)."""
        order = self._order
        if order is not None and not (
            len(order) == len(self.cells)
            and all(
                self.cells.get(cell.name) is cell and cell.source_token is not None
                for cell in order
            )
        ):
            order = self._order = None
        return order

    def keep_order(self, order: List[Cell]) -> None:
        """Keep ``order`` (this layout's topological order) for
        :meth:`topological_order` to answer with while it holds; a layout
        with a cell that holds no source token keeps nothing."""
        if all(cell.source_token is not None for cell in order):
            self._order = order

    def topological_order(self) -> List[Cell]:
        """Cells ordered children-before-parents; raises on reference cycles."""
        kept = self.kept_order()
        if kept is not None:
            return list(kept)
        order = self._topological_order()
        self.keep_order(order)
        return list(order)

    def _topological_order(self) -> List[Cell]:
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done
        order: List[Cell] = []
        path: List[str] = []  # the cells being visited, outermost first

        def visit(name: str) -> None:
            if state.get(name) == 0:
                cycle = " -> ".join(path + [name])
                raise LayoutError(f"reference cycle in layout {self.name!r}: {cycle}")
            state[name] = 0
            cell = self.cell(name)
            path.append(name)
            for ref in cell.references:
                if state.get(ref.cell_name) != 1:
                    visit(ref.cell_name)
            path.pop()
            state[name] = 1
            order.append(cell)

        for name in sorted(self.cells):
            if state.get(name) != 1:
                visit(name)
        return order

    def instance_counts(self, top: Optional[str] = None) -> Dict[str, int]:
        """How many times each cell is instantiated under the top cell.

        The top itself counts once. This drives the hierarchy-reuse numbers
        the paper's memoisation exploits: a check run once per *definition*
        covers ``instance_counts[name]`` placements.
        """
        top_cell = self.cell(top) if top else self.top_cell()
        counts: Dict[str, int] = {name: 0 for name in self.cells}
        counts[top_cell.name] = 1
        for cell in reversed(self.topological_order()):
            multiplier = counts[cell.name]
            if multiplier == 0:
                continue
            for ref in cell.references:
                counts[ref.cell_name] += multiplier * ref.placement_count
        return counts

    def iter_references(self) -> Iterator[tuple]:
        """All ``(parent_cell, reference)`` pairs in the database."""
        for cell in self.cells.values():
            for ref in cell.references:
                yield cell, ref

    # -- rule-definition conveniences (paper Listing 1 calls these on `db`) ----

    def layer(self, number: int):
        """Start a rule chain for one layer: ``db.layer(19).width()...``."""
        from ..core.rules import layer as layer_selector

        return layer_selector(number)

    def polygons(self):
        """Start a rule chain over all polygons: ``db.polygons()...``."""
        from ..core.rules import polygons as polygons_selector

        return polygons_selector()

    def __repr__(self) -> str:
        return f"Layout({self.name!r}, {len(self.cells)} cells)"

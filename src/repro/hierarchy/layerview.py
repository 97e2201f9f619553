"""Layer-wise duplicated hierarchy trees and inverted indices (paper §IV-A).

The paper's space-for-speed option: build, per layer, a *separate* hierarchy
tree containing only the cells whose subtree holds geometry on that layer
(space grows at most L-fold for L layers), and optionally an element-level
inverted index listing every leaf (cell, polygon) pair of the layer so that
"all objects of layer x" queries never touch the tree at all.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Polygon
from ..layout.cell import CellReference
from ..layout.library import Layout
from .tree import HierarchyTree


@dataclasses.dataclass
class LayerTreeNode:
    """One cell of a single-layer hierarchy tree."""

    cell_name: str
    local_polygons: Sequence[Polygon]
    children: List[Tuple[CellReference, "str"]]  # (reference, child cell name)


class LayerView:
    """Per-layer duplicated trees plus element-level inverted indices."""

    def __init__(self, layout: Layout, *, top: Optional[str] = None) -> None:
        self.tree = HierarchyTree(layout, top=top)
        self.layout = layout
        self._layer_trees: Dict[int, Dict[str, LayerTreeNode]] = {}
        self._inverted: Dict[int, List[Tuple[str, Polygon]]] = {}
        self._build()

    def _build(self) -> None:
        all_layers = set()
        for cell in self.layout.cells.values():
            all_layers.update(cell.local_layers())
        for layer in all_layers:
            nodes: Dict[str, LayerTreeNode] = {}
            index: List[Tuple[str, Polygon]] = []
            for cell in self.layout.topological_order():
                if not self.tree.has_layer(cell.name, layer):
                    continue  # cell contributes nothing on this layer
                children = [
                    (ref, ref.cell_name)
                    for ref in cell.references
                    if self.tree.has_layer(ref.cell_name, layer)
                ]
                local = cell.polygons(layer)
                nodes[cell.name] = LayerTreeNode(cell.name, local, children)
                for polygon in local:
                    index.append((cell.name, polygon))
            self._layer_trees[layer] = nodes
            self._inverted[layer] = index

    # -- queries --------------------------------------------------------------

    def layers(self) -> List[int]:
        return sorted(self._layer_trees)

    def layer_tree(self, layer: int) -> Dict[str, LayerTreeNode]:
        """The duplicated tree of one layer (empty dict if the layer is absent)."""
        return self._layer_trees.get(layer, {})

    def tree_size(self, layer: int) -> int:
        """Number of cells participating in one layer's tree."""
        return len(self.layer_tree(layer))

    def leaf_elements(self, layer: int) -> List[Tuple[str, Polygon]]:
        """Inverted index: every (defining cell, polygon) of the layer.

        Answers "all objects in the given layer" without tree traversal.
        """
        return self._inverted.get(layer, [])

    def element_count(self, layer: int) -> int:
        return len(self.leaf_elements(layer))

    def duplication_factor(self) -> float:
        """Total duplicated tree size over the plain hierarchy size (<= L)."""
        base = len(self.layout.cells)
        if base == 0:
            return 0.0
        duplicated = sum(len(nodes) for nodes in self._layer_trees.values())
        return duplicated / base

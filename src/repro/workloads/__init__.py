"""Benchmark workloads: ASAP7-like PDK, standard cells, the six paper designs.

Names resolve on first use (PEP 562): the default rule deck
(``repro.workloads.asap7``) does not drag in the design generators.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "": "asap7",
    ".designs": "DESIGN_NAMES DesignSpec build_all build_design design_spec",
    ".generator": (
        "InjectionPlan inject_violations random_hierarchical_layout random_rect_layout"
    ),
    ".stdcells": "LIBRARY PLACEABLE build_cell build_library",
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())

__getattr__, __dir__ = lazy_exports(
    __name__,
    {name: module for module, names in _EXPORTS.items() for name in names.split()},
)

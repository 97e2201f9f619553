"""repro — a Python reproduction of OpenDRC (DAC 2023).

OpenDRC is an open-source design rule checking engine with hierarchical
layouts, layer-wise bounding volume hierarchies, adaptive row-based layout
partition, a sequential CPU mode, and a parallel (here: simulated) GPU mode.

Quickstart::

    import repro as odrc

    db = odrc.gdsii.read_layout("design.gds")
    engine = odrc.Engine(mode="parallel")
    engine.add_rules([
        odrc.rules.polygons().is_rectilinear(),
        odrc.rules.layer(19).width().greater_than(18),
        odrc.rules.layer(19).spacing().greater_than(21),
    ])
    report = engine.check(db)
    print(report.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from ._lazy import lazy_exports
from .errors import (
    GdsiiError,
    GeometryError,
    LayoutError,
    ReproError,
    RuleError,
)

__version__ = "1.0.0"

__all__ = [
    "CheckReport",
    "CheckResult",
    "Engine",
    "EngineOptions",
    "GdsiiError",
    "GeometryError",
    "LayoutError",
    "MODE_PARALLEL",
    "MODE_SEQUENTIAL",
    "ReproError",
    "Rule",
    "RuleError",
    "RuleKind",
    "checks",
    "gdsii",
    "geometry",
    "gpu",
    "hierarchy",
    "layout",
    "partition",
    "rules",
    "spatial",
    "util",
]

# Subpackages and the engine's names resolve on first use (PEP 562), so that
# ``python -m repro <subcommand>`` imports only what the subcommand needs.
_FROM_CORE = (
    "CheckReport",
    "CheckResult",
    "Engine",
    "EngineOptions",
    "MODE_PARALLEL",
    "MODE_SEQUENTIAL",
    "Rule",
    "RuleKind",
    "rules",
)
_SUBPACKAGES = (
    "checks",
    "gdsii",
    "geometry",
    "gpu",
    "hierarchy",
    "layout",
    "partition",
    "spatial",
    "util",
)
__getattr__, __dir__ = lazy_exports(
    __name__, {**dict.fromkeys(_FROM_CORE, ".core"), **dict.fromkeys(_SUBPACKAGES, "")}
)

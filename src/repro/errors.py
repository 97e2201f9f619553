"""Exception hierarchy for the repro (OpenDRC reproduction) package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(ReproError):
    """Invalid geometric input (non-rectilinear polygon, degenerate edge, ...)."""


class GdsiiError(ReproError):
    """Malformed GDSII stream data or an unsupported record."""


class LayoutError(ReproError):
    """Inconsistent layout database (missing cell, reference cycle, ...)."""


class RuleError(ReproError):
    """Ill-formed design rule (missing predicate, bad layer, ...)."""

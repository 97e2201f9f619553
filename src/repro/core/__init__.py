"""OpenDRC's core: rule DSL, CheckPlan IR, engine, backends, results.

Public names resolve on first use (PEP 562): importing ``repro.core`` or one
of its modules does not import the simulated device or NumPy until a name
that needs them is asked for.
"""

from .._lazy import lazy_exports

#: Defining module -> the public names it contributes.
_EXPORTS = {
    ".diff": "FULL_RECHECK LayoutDiff diff_layouts",
    ".engine": "Engine",
    ".incremental": "MODE_RECHECK RecheckOutcome check_regions check_window recheck",
    ".packstore": "PackStore resolve_store",
    ".parallel": "ParallelBackend",
    ".plan": (
        "Backend CheckPlan CompiledRule "
        "ENGINE_MODES EngineOptions KindSpec "
        "MODE_PARALLEL MODE_SEQUENTIAL MODE_WINDOWED PackCache "
        "PlanCaches compile_plan infer_rule_dependencies interaction_distance "
        "kind_spec make_backend"
    ),
    ".reportcache": "ReportCache deck_digest report_key",
    ".results": "CheckReport CheckResult splice_violations",
    ".rules": (
        "LayerSelector MeasureSelector PolygonSelector Rule RuleKind layer "
        "polygons validate_rules"
    ),
    ".sequential": "SequentialBackend",
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        **{name: module for module, names in _EXPORTS.items() for name in names.split()},
        "rules": "",  # ``repro.rules`` is this submodule
    },
)

"""OpenDRC's core: rule DSL, CheckPlan IR, engine, backends, results.

Public names resolve on first use (PEP 562): importing ``repro.core`` or one
of its modules does not import the simulated device, the worker pool or
NumPy until a name that needs them is asked for.
"""

from .._lazy import lazy_exports

#: Defining module -> the public names it contributes.
_EXPORTS = {
    ".costmodel": "CostModel model_for",
    ".diff": "FULL_RECHECK LayoutDiff diff_layouts",
    ".engine": "Engine",
    ".incremental": "MODE_RECHECK RecheckOutcome check_regions check_window recheck",
    ".multiproc": "MultiprocessBackend",
    ".packstore": "PackStore resolve_store",
    ".parallel": "ParallelBackend",
    ".plan": (
        "Backend CheckPlan CompiledRule "
        "ENGINE_MODES EngineOptions KindSpec "
        "MODE_MULTIPROC MODE_PARALLEL MODE_SEQUENTIAL MODE_WINDOWED PackCache "
        "PlanCaches compile_plan infer_rule_dependencies interaction_distance "
        "kind_spec make_backend"
    ),
    ".reportcache": "ReportCache deck_digest report_key",
    ".results": (
        "CheckReport CheckResult combine_results merge_reports merge_stats "
        "splice_violations"
    ),
    ".rules": (
        "LayerSelector MeasureSelector PolygonSelector Rule RuleKind layer "
        "polygons validate_rules"
    ),
    ".scheduler": "greedy_balanced_shards shard_count",
    ".sequential": "SequentialBackend",
    ".workerpool": "WorkerPool",
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        **{name: module for module, names in _EXPORTS.items() for name in names.split()},
        "rules": "",  # ``repro.rules`` is this submodule
    },
)

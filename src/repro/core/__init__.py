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
    ".incremental": "MODE_RECHECK RecheckOutcome WindowedBackend check_window recheck",
    ".multiproc": "MultiprocessBackend",
    ".packstore": "PackStore resolve_store",
    ".parallel": "ParallelBackend",
    ".plan": (
        "ALL_MODES Backend CheckPlan CompiledRule "
        "DEFAULT_BRUTE_FORCE_THRESHOLD ENGINE_MODES EngineOptions KindSpec "
        "MODE_MULTIPROC MODE_PARALLEL MODE_SEQUENTIAL MODE_WINDOWED PackCache "
        "PlanCaches compile_plan interaction_distance kind_spec make_backend"
    ),
    ".reportcache": "ReportCache deck_digest report_key",
    ".results": (
        "CheckReport CheckResult combine_results merge_reports merge_stats "
        "splice_violations violation_from_json violation_to_json"
    ),
    ".rules": (
        "LayerSelector MeasureSelector PolygonSelector Rule RuleKind layer "
        "polygons validate_rules"
    ),
    ".scheduler": (
        "ScheduleAnalysis Task TaskGraph build_plan_graph build_rule_graph "
        "greedy_balanced_shards infer_rule_dependencies shard_count"
    ),
    ".sequential": "SequentialBackend",
    ".workerpool": "WARM_POOL_ENV WorkerPool warm_pool_enabled",
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        **{name: module for module, names in _EXPORTS.items() for name in names.split()},
        "rules": "",  # ``repro.rules`` is this submodule
    },
)

"""The traced run: each workload's op replayed in-process, layer by layer.

A traced run never feeds the end-to-end metrics. It replays the inputs
inside this process with a span around every call into a layer's public
functions, adds side probes for what no op calls on its own (cache tiers,
the other renderers, daemon paths kept out of the timed turn), and
measures the HTTP surface against a real daemon. ``<module>.<what>_s`` is
the median over passes of one such call on this run's inputs, the same
definition on every workload; which of them an op of *this* workload
enters, and how often, is what ``bench.coverage`` and the span dump say.
Counts are read from the program's own gauges and must repeat exactly.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List

import inputs as inp
from procs import Daemon, run_reference, time_import
from stats import percentile
from tracing import NullTracer, Tracer, span_cost_s
from workloads import Workload

from repro.client import ServeClient, report_json_to_csv
from repro.core import Engine, EngineOptions, compile_plan, diff_layouts, recheck
from repro.core.packstore import PackStore, layer_geometry_digest
from repro.core.reportcache import ReportCache
from repro.gdsii import read_bytes
from repro.hierarchy.tree import HierarchyTree
from repro.layout import compute_stats
from repro.layout.builder import layout_from_gdsii
from repro.reporting import csv_from_payload
from repro.server import ServerState
from repro.server.state import report_payload
from repro.workloads import asap7

LRU_CHECKS = 9
HTTP_TURNS = 6
HTTP_READS = 40
#: Spans that frame an op rather than name a layer's call.
_FRAMING = ("op", "server.http.encode", "client.decode")


class Layers:
    """All replays and probes of one traced run, over one set of inputs."""

    def __init__(self, workload: Workload, scratch: Path) -> None:
        self.workload = workload
        self.passes = workload.size.passes
        self.inputs = workload.inputs
        self.base_csv = workload.base_csv
        self.scratch = scratch
        self.tracer = Tracer()
        #: Output mismatches found while replaying (a traced run verifies too).
        self.errors: List[str] = []
        #: Per pass: exact-repeat counts, and what the program itself
        #: measured (PhaseProfile sums, per-rule seconds, backend gauges).
        self.counts: List[Dict[str, float]] = []
        self.reported: List[Dict[str, float]] = []

    # -- shared steps ------------------------------------------------------------

    def _expect(self, what: str, ok: bool) -> None:
        if not ok:
            self.errors.append(what)

    def _parse(self, gds: bytes):
        with self.tracer.span("gdsii.read_bytes"):
            library = read_bytes(gds)
        with self.tracer.span("layout.from_gdsii"):
            layout = layout_from_gdsii(library)
            layout.set_top(inp.TOP)
        return layout

    def _render(self, report) -> str:
        with self.tracer.span("core.results.payload"):
            payload = report.payload()
        with self.tracer.span("reporting.csv"):
            text = csv_from_payload(payload, expand_instances=True)
        return text + "\n"

    # -- op replays ----------------------------------------------------------------

    def replay_check(self, mode: str, op_id: str):
        """What ``repro check --mode <mode> --no-cache`` does after start-up."""
        tracer = self.tracer
        with tracer.op(op_id):
            layout = self._parse(self.inputs.base_gds)
            with tracer.span("hierarchy.tree"):
                tree = HierarchyTree(layout)
            with Engine(options=EngineOptions(mode=mode, use_cache=False)) as engine:
                with tracer.span(f"core.{mode}.check"):
                    report = engine.check(layout, rules=asap7.full_deck(), tree=tree)
            text = self._render(report)
        self._expect(f"{mode} replay differs from the oracle", text == self.base_csv)
        return layout, tree, engine, report

    def replay_recheck(self, edit: int, seeded: Path, op_id: str):
        """What ``repro recheck base.gds edit.gds --cache-dir C`` does, on a
        fresh copy of a seeded cache directory."""
        cache = self.scratch / "cache_op"
        shutil.rmtree(cache, ignore_errors=True)
        shutil.copytree(seeded, cache)
        with self.tracer.op(op_id):
            old = self._parse(self.inputs.base_gds)
            new = self._parse(self.inputs.edit_gds(edit))
            with self.tracer.span("core.incremental.recheck"):
                outcome = recheck(
                    old,
                    new,
                    rules=asap7.full_deck(),
                    options=EngineOptions(cache_dir=str(cache)),
                )
            text = self._render(outcome.report)
        self._expect(
            "recheck replay missed the cache or differs from the oracle",
            outcome.cache_hit and inp.csv_rows(text) == self.workload.expected_rows(edit),
        )
        return old, new, outcome

    def replay_turn(self, tracer, state: ServerState, sid: str, k: int, op_id: str):
        """One served turn against the service core, no socket: what the
        HTTP shell and the client add is replayed as JSON encode/decode."""
        edit = k % len(self.inputs.edits)
        data = self.inputs.edit_gds(edit)
        queries = self.workload.turn_queries(k)
        listings = []
        with tracer.op(op_id):
            with tracer.span("server.state.recheck"):
                report, meta = state.recheck(sid, data=data)
            with tracer.span("server.http.encode"):
                body = json.dumps(report_payload(report, meta), sort_keys=True).encode()
            with tracer.span("client.decode"):
                reply = json.loads(body.decode())
            for query in queries:
                with tracer.span("server.state.violations"):
                    listing = state.violations(
                        sid,
                        severity=query.severity,
                        rules=list(query.rules) if query.rules else None,
                        bbox=query.bbox,
                    )
                with tracer.span("server.http.encode"):
                    body = json.dumps(listing, sort_keys=True).encode()
                with tracer.span("client.decode"):
                    listings.append(json.loads(body.decode()))
        text = report_json_to_csv(reply["report"], expand_instances=True)
        mismatch = self.workload.turn_mismatch(edit, text, queries, listings)
        self._expect(f"served turn replay: {mismatch}", not mismatch)

    # -- one pass over everything ----------------------------------------------------

    def run_pass(self, index: int) -> None:
        tracer = self.tracer
        counts: Dict[str, float] = {}
        reported: Dict[str, float] = {}
        deck = asap7.full_deck()

        # The two cold checks.
        layout, tree, engine, report = self.replay_check("sequential", f"cold_seq:{index}")
        stats = compute_stats(layout)
        counts["gdsii.bytes"] = len(self.inputs.base_gds)
        counts["layout.flat_polygons"] = stats.num_flat_polygons
        counts["layout.cells"] = stats.num_cells
        counts["layout.instances"] = stats.num_instances
        profiles = list(engine.last_profiles.values())
        reported["spatial.sweepline_s"] = sum(p.seconds("sweepline") for p in profiles)
        reported["checks.edge_checks_s"] = sum(p.seconds("edge-checks") for p in profiles)
        for kind in ("width", "area", "spacing", "enclosure"):
            reported[f"checks.{kind}_s"] = sum(
                r.seconds for r in report.results if r.rule.kind.value == kind
            )
        # Per-rule stats are cumulative down the deck (kernel_launches reads
        # 2, 3, 5, 6, ...): the last rule's gauges are the run's totals, and
        # summing them would over-count.
        final = report.results[-1].stats
        for key in ("checks_run", "checks_reused", "pairs_considered", "pairs_pruned_mbr"):
            counts[f"core.sequential.{key}"] = final[key]
        counts["core.results.violations"] = report.total_violations

        _, _, par_engine, par_report = self.replay_check("parallel", f"cold_par:{index}")
        final = par_report.results[-1].stats
        for key in ("kernel_launches", "h2d_copies", "h2d_bytes", "fused_launches", "fused_segments"):
            counts[f"gpu.{key}"] = final[key]
        counts["core.plan.pack_cache_hits"] = final["pack_cache_hits"]
        counts["core.plan.pack_cache_misses"] = final["pack_cache_misses"]
        reported["partition.s"] = sum(
            p.seconds("partition") for p in par_engine.last_profiles.values()
        )
        reported["hierarchy.pack_s"] = final["pack_seconds"]
        reported["gpu.kernel_s"] = final["kernel_seconds"]

        # Front-end pieces no op calls on their own.
        with tracer.span("core.packstore.layer_digest"):
            for layer in layout.layers():
                layer_geometry_digest(tree, layer)
        with tracer.span("core.plan.compile"):
            compile_plan(layout, deck, EngineOptions(use_cache=False), tree=tree)

        # The other renderers.
        payload = report.payload()
        with tracer.span("reporting.csv_dedup"):
            csv_from_payload(payload)
        with tracer.span("reporting.json"):
            json_text = json.dumps(payload, indent=2, sort_keys=True)
        served_payload = json.loads(json_text)
        with tracer.span("client.report_json_to_csv"):
            text = report_json_to_csv(served_payload, expand_instances=True)
        self._expect("client CSV differs from the oracle", text + "\n" == self.base_csv)
        counts["reporting.csv_bytes"] = len(self.base_csv)

        # Pack store and report cache: a cold then a warm check of one
        # directory, which then serves as edit_recheck's seeded cache.
        seeded = self.scratch / f"cache_seed_{index}"
        for name in ("core.packstore.cold_check", "core.packstore.warm_check"):
            options = EngineOptions(mode="sequential", cache_dir=str(seeded))
            with Engine(options=options) as cached_engine:
                with tracer.span(name):
                    cached = cached_engine.check(layout, rules=deck)
            final = cached.results[-1].stats
            if name.endswith("cold_check"):
                counts["core.packstore.misses"] = final["cache_misses"]
                counts["core.packstore.bytes_written"] = final["cache_bytes_written"]
            else:
                counts["core.packstore.hits"] = final["cache_hits"]
                counts["core.packstore.bytes_read"] = final["cache_bytes_read"]
        reports = ReportCache(PackStore(str(self.scratch / f"reports_{index}")))
        with tracer.span("core.reportcache.save"):
            reports.save("probe", report)
        with tracer.span("core.reportcache.load"):
            loaded = reports.load("probe", deck)
        self._expect("report cache round trip lost the report", loaded is not None)
        # Not an exact-repeat count: the entry embeds per-rule seconds.
        reported["core.reportcache.entry_bytes"] = reports.total_bytes()

        # Incremental: the whole recheck op, then the diff on its own.
        old, new, outcome = self.replay_recheck(index, seeded, f"edit_recheck:{index}")
        with tracer.span("core.diff.diff_layouts"):
            diff = diff_layouts(old, new)
        counts["core.diff.dirty_rects"] = sum(
            len(diff.dirty[layer]) for layer in diff.dirty_layers()
        )
        for kind in ("cached", "windowed", "full"):
            counts[f"core.incremental.rules_{kind}"] = sum(
                1 for d in outcome.disposition.values() if d == kind
            )

        # The service core without a socket.
        with ServerState() as state:
            with tracer.span("server.state.create_session"):
                session, _ = state.create_session(data=self.inputs.base_gds, top=inp.TOP)
            sid = session.sid
            with tracer.span("server.state.check_engine"):
                _, meta = state.check(sid)
            self._expect("first served check did not run the engine", meta["source"] == "engine")
            for _ in range(LRU_CHECKS):
                with tracer.span("server.state.check_lru"):
                    _, meta = state.check(sid)
            self._expect("repeat served check missed the LRU", meta["source"] == "report-lru")
            # As in the workload, a warm-up turn first: timed turns go from
            # one edit to the next, not from the base.
            # Each turn uploads another edit: the same one twice would be a
            # digest-identical no-op.
            self.replay_turn(NullTracer(), state, sid, index + self.passes, "")
            self.replay_turn(tracer, state, sid, index, f"serve_loop:{index}")
            with tracer.span("server.state.check_after_recheck"):
                _, meta = state.check(sid)
        self.counts.append(counts)
        self.reported.append(reported)

    # -- against a real daemon ---------------------------------------------------------

    def http_probe(self) -> Dict[str, float]:
        """Per-request wall times over HTTP, and the daemon's own counters."""
        workdir = self.scratch / "http"
        workdir.mkdir()
        daemon = Daemon(workdir)
        try:
            client = ServeClient(daemon.url, timeout=60.0)
            client.wait_ready(interval=0.01, max_interval=0.01)
            sid = client.create_session(data=self.inputs.base_gds, top=inp.TOP)["session"]
            client.check(sid)

            def timed(call) -> float:
                start = time.perf_counter()
                call()
                return time.perf_counter() - start

            lru = [timed(lambda: client.check(sid)) for _ in range(LRU_CHECKS)]
            rechecks = [
                timed(
                    lambda k=k: client.recheck(
                        sid, data=self.inputs.edit_gds(k % len(self.inputs.edits))
                    )
                )
                for k in range(HTTP_TURNS)
            ]
            queries = self.inputs.queries
            reads = [
                timed(
                    lambda q=queries[i % len(queries)]: client.violations(
                        sid, severity=q.severity, rules=q.rules, bbox=q.bbox
                    )
                )
                for i in range(HTTP_READS)
            ]
            counters = client.stats()["counters"]
        finally:
            daemon.stop()
        recheck_p50 = statistics.median(rechecks)
        return {
            "server.http.recheck_s_p50": recheck_p50,
            "server.http.violations_s_p50": statistics.median(reads),
            "server.http.violations_s_p99": percentile(reads, 0.99),
            "server.http.check_lru_s_p50": statistics.median(lru),
            "server.http.upload_mb_per_s": len(self.inputs.base_gds) / 1e6 / recheck_p50,
            "server.state.engine_runs": counters["engine_runs"],
            "server.state.report_lru_hits": counters["report_lru_hits"],
            "server.state.admission_bypassed": counters["admission_bypassed"],
        }

    # -- the whole traced run -------------------------------------------------------------

    def run(self) -> Dict[str, float]:
        """Every per-layer metric, measured on the workload's inputs."""
        workload = self.workload
        name, size = workload.name, workload.size

        # Real ops from outside (the denominator of the coverage ratio),
        # a few before each in-process pass so that a shift in host speed
        # during the minute a traced run takes lands on both.
        walls, references = [], []
        for index in range(self.passes):
            for k in range(index * size.real_ops_per_pass, (index + 1) * size.real_ops_per_pass):
                references.append(run_reference(workload.workdir)[1])
                workload.between(k)
                sample = workload.op(k)
                self._expect(f"real op {k}: {sample.detail}", sample.ok)
                walls.append(sample.wall_s)
            self.run_pass(index)
        self._expect(
            "a variant's output differs from its own oracle",
            not workload.failed_variant_ops(),
        )
        import_s = time_import("repro.cli", size.import_repeats)
        for earlier, later in zip(self.counts, self.counts[1:]):
            self._expect("counts differ between passes", earlier == later)

        tracer = self.tracer
        metrics: Dict[str, float] = dict(self.counts[0])
        metrics["cli.import_s"] = import_s
        for span_name in {s.name for s in tracer.spans}.difference(_FRAMING):
            metrics[f"{span_name}_s"] = statistics.median(tracer.durations(span_name))
        for key in self.reported[0]:
            metrics[key] = statistics.median(r[key] for r in self.reported)
        metrics["gdsii.mb_per_s"] = metrics["gdsii.bytes"] / 1e6 / metrics["gdsii.read_bytes_s"]
        run, reused = metrics["core.sequential.checks_run"], metrics["core.sequential.checks_reused"]
        metrics["hierarchy.reuse_ratio"] = reused / (run + reused)
        metrics.update(self.http_probe())
        metrics["server.http.overhead_s"] = (
            metrics["server.http.check_lru_s_p50"] - metrics["server.state.check_lru_s"]
        )

        # Coverage: what the spans of this workload's replayed op account
        # for (plus interpreter start-up and imports, for a CLI op), against
        # what the same op costs from outside.
        op_ids = [f"{name}:{i}" for i in range(self.passes)]
        own = tracer.self_seconds()
        covered = statistics.median(
            sum(s for span_name, s in own[op_id].items() if span_name != "op")
            for op_id in op_ids
        )
        if name != "serve_loop":
            covered += import_s
        wall_p50 = statistics.median(walls)
        metrics["bench.op_wall_s_p50"] = wall_p50
        metrics["bench.op_wall_s_max"] = max(walls)
        metrics["bench.reference_cpu_s_p50"] = statistics.median(references)
        metrics["bench.coverage"] = covered / wall_p50
        # What the spans cost the replayed op, from what one span costs:
        # two replays of one op, one traced and one not, differ by 10 % and
        # more on this host, a thousand times what a dozen spans add.
        op_seconds = statistics.median(
            s.end - s.start for s in tracer.spans if s.name == "op" and s.op_id in op_ids
        )
        spans_per_op = sum(1 for s in tracer.spans if s.op_id == op_ids[0])
        traced_seconds = spans_per_op * span_cost_s()
        metrics["bench.trace_overhead"] = op_seconds / (op_seconds - traced_seconds)
        return metrics

"""True incremental re-check: diff-driven splicing equals the cold check."""

import json

import pytest

from repro.core import Engine, EngineOptions
from repro.core.incremental import MODE_RECHECK, recheck
from repro.core.reportcache import ReportCache, deck_digest, report_key
from repro.core.packstore import PackStore, layer_geometry_digest
from repro.core.rules import layer, polygons
from repro.geometry import Polygon, Transform
from repro.hierarchy.tree import HierarchyTree
from repro.layout.cell import CellReference
from repro.workloads import asap7, build_design

# Deck exercising every splice-sensitive kind the issue names: spacing,
# width, enclosure, corner — plus area for an intra rule with planted hits.
DECK = [
    layer(asap7.M1).width().greater_than(18),
    layer(asap7.M1).spacing().greater_than(21),
    layer(asap7.M1).corner_spacing().greater_than(10),
    layer(asap7.M1).area().greater_than(1000),
    layer(asap7.M2).spacing().greater_than(21),
    layer(asap7.V1).enclosure(layer(asap7.M1)).greater_than(5),
]


def edit_add_top_polygon(layout):
    """A skinny wire near the origin: width + area + spacing trouble."""
    layout.top_cell().add_polygon(
        asap7.M1, Polygon.from_rect_coords(40, 40, 52, 90)
    )


def edit_stdcell_definition(layout):
    """Touch one cell definition: dirt at every instance placement."""
    name = sorted(
        n for n, c in layout.cells.items() if c.polygons(asap7.M1) and n != "top"
    )[0]
    cell = layout.cells[name]
    anchor = cell.polygons(asap7.M1)[0].mbr
    cell.add_polygon(
        asap7.M1,
        Polygon.from_rect_coords(
            anchor.xhi + 2, anchor.ylo, anchor.xhi + 14, anchor.ylo + 30
        ),
    )


def edit_remove_top_polygon(layout):
    # uart's top cell routes M2 locally (M1 lives inside the stdcells).
    layout.top_cell().remove_polygon(asap7.M2, -1)


def edit_add_instance(layout):
    name = sorted(
        n for n, c in layout.cells.items() if c.polygons(asap7.M1) and n != "top"
    )[0]
    layout.top_cell().add_reference(
        CellReference(name, Transform(dx=31, dy=463))
    )


EDITS = {
    "add-top-polygon": edit_add_top_polygon,
    "edit-stdcell": edit_stdcell_definition,
    "remove-top-polygon": edit_remove_top_polygon,
    "add-instance": edit_add_instance,
}


def versions(*edits):
    """(old, new) uart builds with ``edits`` applied to the new version."""
    old = build_design("uart")
    new = build_design("uart")
    for edit in edits:
        edit(new)
    return old, new


class TestSpliceEqualsColdCheck:
    @pytest.mark.parametrize("edit", sorted(EDITS), ids=sorted(EDITS))
    def test_spliced_report_byte_identical(self, edit):
        old, new = versions(EDITS[edit])
        engine = Engine(mode="sequential")
        baseline = engine.check(old, rules=DECK)
        outcome = recheck(old, new, rules=DECK, cached=baseline)
        cold = engine.check(new, rules=DECK)
        assert outcome.report.to_csv() == cold.to_csv()
        assert outcome.report.mode == MODE_RECHECK

    def test_edit_actually_rechecks_incrementally(self):
        old, new = versions(edit_add_top_polygon)
        baseline = Engine(mode="sequential").check(old, rules=DECK)
        outcome = recheck(old, new, rules=DECK, cached=baseline)
        kinds = set(outcome.disposition.values())
        assert "windowed" in kinds  # M1 rules re-ran in the dirty halo
        # The V1 layer is untouched, but enclosure involves M1 → windowed;
        # nothing in this deck needed a full re-run.
        assert "full" not in kinds

    def test_fixing_a_violation_drops_it_from_the_splice(self):
        old = build_design("uart")
        bad = Polygon.from_rect_coords(40, 40, 52, 90)
        old.top_cell().add_polygon(asap7.M1, bad)
        new = build_design("uart")  # the fix: the bad wire is gone
        engine = Engine(mode="sequential")
        baseline = engine.check(old, rules=DECK)
        assert not baseline.passed
        outcome = recheck(old, new, rules=DECK, cached=baseline)
        cold = engine.check(new, rules=DECK)
        assert outcome.report.to_csv() == cold.to_csv()

    def test_coloring_rule_full_rerun_still_exact(self):
        deck = DECK + [layer(asap7.M1).same_mask_spacing().greater_than(21)]
        old, new = versions(edit_add_top_polygon)
        engine = Engine(mode="sequential")
        baseline = engine.check(old, rules=deck)
        outcome = recheck(old, new, rules=deck, cached=baseline)
        assert outcome.disposition[deck[-1].name] == "full"
        assert outcome.report.to_csv() == engine.check(new, rules=deck).to_csv()

    def test_verify_flag_asserts_equality(self):
        old, new = versions(edit_stdcell_definition)
        baseline = Engine(mode="sequential").check(old, rules=DECK)
        outcome = recheck(old, new, rules=DECK, cached=baseline, verify=True)
        assert outcome.reference is not None
        assert outcome.report.to_csv() == outcome.reference.to_csv()

    def test_clean_diff_reuses_everything(self):
        old, new = versions()
        baseline = Engine(mode="sequential").check(old, rules=DECK)
        outcome = recheck(old, new, rules=DECK, cached=baseline)
        assert set(outcome.disposition.values()) == {"cached"}
        assert outcome.report.to_csv() == baseline.to_csv()


class TestEngineRecheck:
    def test_engine_facade(self):
        old, new = versions(edit_add_top_polygon)
        engine = Engine(mode="sequential")
        baseline = engine.check(old, rules=DECK)
        report = engine.recheck(old, new, rules=DECK, cached=baseline)
        assert report.to_csv() == engine.check(new, rules=DECK).to_csv()
        assert engine.last_recheck is not None
        assert engine.last_recheck.report is report

    def test_cold_start_without_baseline(self):
        old, new = versions(edit_add_top_polygon)
        engine = Engine(mode="sequential")
        report = engine.recheck(old, new, rules=DECK)
        assert set(engine.last_recheck.disposition.values()) == {"cold"}
        assert report.to_csv() == engine.check(new, rules=DECK).to_csv()


class TestReportCacheRoundTrip:
    def test_check_populates_and_recheck_hits(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        old, new = versions(edit_add_top_polygon)
        Engine(options=options).check(old, rules=DECK)  # populates the cache
        outcome = recheck(old, new, rules=DECK, options=options)
        assert outcome.cache_hit
        assert "windowed" in set(outcome.disposition.values())
        cold = Engine(mode="sequential").check(new, rules=DECK)
        assert outcome.report.to_csv() == cold.to_csv()

    def test_chained_edits_keep_hitting(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        v0 = build_design("uart")
        v1 = build_design("uart")
        edit_add_top_polygon(v1)
        v2 = build_design("uart")
        edit_add_top_polygon(v2)
        edit_stdcell_definition(v2)
        Engine(options=options).check(v0, rules=DECK)
        first = recheck(v0, v1, rules=DECK, options=options)
        assert first.cache_hit
        second = recheck(v1, v2, rules=DECK, options=options)
        assert second.cache_hit  # the spliced v1 report was stored
        cold = Engine(mode="sequential").check(v2, rules=DECK)
        assert second.report.to_csv() == cold.to_csv()

    def test_cold_miss_stores_for_next_time(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        old, new = versions(edit_add_top_polygon)
        outcome = recheck(old, new, rules=DECK, options=options)
        assert not outcome.cache_hit
        assert set(outcome.disposition.values()) == {"cold"}
        # The new version's report is now cached: rechecking new->new hits.
        again = recheck(new, new, rules=DECK, options=options)
        assert again.cache_hit
        assert set(again.disposition.values()) == {"cached"}

    def test_unpicklable_predicate_disables_caching(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        deck = DECK + [polygons().ensures(lambda p: True)]
        assert deck_digest(deck) is None
        old, new = versions(edit_add_top_polygon)
        Engine(options=options).check(old, rules=deck)
        outcome = recheck(old, new, rules=deck, options=options)
        assert not outcome.cache_hit  # honest miss, cold re-check
        cold = Engine(mode="sequential").check(new, rules=deck)
        assert outcome.report.to_csv() == cold.to_csv()

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        old, _ = versions()
        engine = Engine(options=options)
        engine.check(old, rules=DECK)
        store = PackStore(str(tmp_path))
        cache = ReportCache(store)
        digests = {
            L: engine.last_plan.caches.layer_digest(L) for L in old.layers()
        }
        key = report_key(deck_digest(DECK), digests)
        path = cache._path(key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert cache.load(key, DECK) is None
        assert cache.misses == 1

    def test_cache_round_trips_violations_exactly(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        old = build_design("uart")
        edit_add_top_polygon(old)  # a report with real violations
        engine = Engine(options=options)
        report = engine.check(old, rules=DECK)
        digests = {
            L: engine.last_plan.caches.layer_digest(L) for L in old.layers()
        }
        key = report_key(deck_digest(DECK), digests)
        loaded = ReportCache(PackStore(str(tmp_path))).load(key, DECK)
        assert loaded is not None
        assert loaded.to_csv() == report.to_csv()


def cold_report(layout, deck=DECK):
    """The oracle: computed by an engine that has no store to be answered by."""
    with Engine(options=EngineOptions(use_cache=False)) as engine:
        return engine.check(layout, rules=deck)


def version_key(layout, deck=DECK):
    tree = HierarchyTree(layout)
    digests = {L: layer_geometry_digest(tree, L) for L in layout.layers()}
    return report_key(deck_digest(deck), digests)


class TestVerifyComputesItsReference:
    """``verify`` must never be answered by the store it verifies."""

    def test_planted_entry_cannot_stand_in_for_the_reference(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        old, new = versions(edit_add_top_polygon)
        wrong = Engine(options=options).check(old, rules=DECK)
        cold = cold_report(new)
        assert wrong.to_csv() != cold.to_csv()
        store = ReportCache(PackStore(str(tmp_path)))
        store.save(version_key(new), wrong)
        # The plant works: a plain check of the new version is poisoned.
        poisoned = Engine(options=options).check(new, rules=DECK)
        assert poisoned.to_csv() == wrong.to_csv()

        outcome = recheck(old, new, rules=DECK, options=options, verify=True)
        assert outcome.cache_hit and "windowed" in outcome.disposition.values()
        assert outcome.reference.to_csv() == cold.to_csv()
        assert outcome.report.to_csv() == cold.to_csv()
        # The verified splice replaced the planted entry.
        fresh = ReportCache(PackStore(str(tmp_path)))
        assert fresh.load(version_key(new), DECK).to_csv() == cold.to_csv()

    def test_cold_verify_ignores_a_planted_entry_too(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        old, new = versions(edit_add_top_polygon)
        store = ReportCache(PackStore(str(tmp_path)))
        store.save(version_key(new), cold_report(old))  # no baseline for old
        cold = cold_report(new)
        outcome = recheck(old, new, rules=DECK, options=options, verify=True)
        assert set(outcome.disposition.values()) == {"cold"}
        assert outcome.report.to_csv() == cold.to_csv()
        assert outcome.reference is outcome.report
        fresh = ReportCache(PackStore(str(tmp_path)))
        assert fresh.load(version_key(new), DECK).to_csv() == cold.to_csv()

    def test_failed_verification_stores_nothing(self, tmp_path, monkeypatch):
        from repro.core import incremental

        options = EngineOptions(cache_dir=str(tmp_path))
        old, new = versions(edit_add_top_polygon)
        Engine(options=options).check(old, rules=DECK)
        # A splice that forgets the fresh violations: the bug verify exists for.
        monkeypatch.setattr(
            incremental, "splice_violations", lambda cached, fresh, regions: cached
        )
        with pytest.raises(AssertionError, match="diverges"):
            recheck(old, new, rules=DECK, options=options, verify=True)
        store = ReportCache(PackStore(str(tmp_path)))
        assert store.load(version_key(new), DECK) is None
        assert len(store.entries()) == 1  # only the old version's report


class TestReportJson:
    def test_schema_and_stability(self):
        old = build_design("uart")
        edit_add_top_polygon(old)
        report = Engine(mode="sequential").check(old, rules=DECK)
        payload = json.loads(report.to_json())
        assert payload["layout"] == "uart"
        assert payload["mode"] == "sequential"
        assert payload["total_violations"] == report.total_violations
        assert [r["rule"] for r in payload["results"]] == [
            r.rule.name for r in report.results
        ]
        entry = payload["results"][1]
        assert entry["kind"] == "spacing"
        assert entry["layer"] == asap7.M1
        for violation in entry["violations"]:
            xlo, ylo, xhi, yhi = violation["region"]
            assert xlo <= xhi and ylo <= yhi
            assert violation["measured"] < violation["required"]

    def test_json_identical_across_backends(self):
        old = build_design("uart")
        edit_add_top_polygon(old)
        seq = Engine(mode="sequential").check(old, rules=DECK)
        par = Engine(mode="parallel").check(old, rules=DECK)

        def squash(report):
            payload = json.loads(report.to_json())
            payload["mode"] = "-"
            for entry in payload["results"]:
                entry["seconds"] = 0
                entry["stats"] = {}
            return json.dumps(payload, sort_keys=True)

        assert squash(seq) == squash(par)

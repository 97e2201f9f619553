"""The calibrated cost model: estimates, routing, persistence."""

import json

import pytest

from repro.core.costmodel import (
    BREAK_EVEN_SAFETY,
    COSTMODEL_FILENAME,
    CostModel,
    DEFAULT_DISPATCH_SECONDS,
    EWMA_ALPHA,
    FORMAT_VERSION,
    TARGET_DISPATCH_MULTIPLE,
    model_for,
    reset_models,
)
from repro.core.scheduler import SHARD_OVERSUBSCRIPTION, shard_count


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_models()
    yield
    reset_models()


class TestCalibration:
    def test_dispatch_keeps_the_minimum(self):
        model = CostModel()
        model.observe_dispatch(2e-3)
        model.observe_dispatch(1e-3)
        model.observe_dispatch(5e-3)
        assert model.overhead() == pytest.approx(1e-3)

    def test_dispatch_ignores_nonpositive(self):
        model = CostModel()
        model.observe_dispatch(0.0)
        model.observe_dispatch(-1.0)
        assert model.dispatch_seconds is None
        assert model.overhead() == DEFAULT_DISPATCH_SECONDS

    def test_kind_rate_is_an_ewma(self):
        model = CostModel()
        model.observe_kind("spacing", weight=100.0, seconds=1.0)  # rate 0.01
        assert model.estimate_kind("spacing", 50.0) == pytest.approx(0.5)
        model.observe_kind("spacing", weight=100.0, seconds=3.0)  # rate 0.03
        blended = (1 - EWMA_ALPHA) * 0.01 + EWMA_ALPHA * 0.03
        assert model.estimate_kind("spacing", 100.0) == pytest.approx(
            blended * 100.0
        )

    def test_unknown_estimates_are_none(self):
        model = CostModel()
        assert model.estimate_kind("spacing", 10.0) is None


class TestRouting:
    def test_single_job_never_pools(self):
        model = CostModel()
        assert not model.worth_pooling(100.0, jobs=1)

    def test_break_even_threshold_sharded_batch(self):
        model = CostModel()
        model.observe_dispatch(1e-3)
        jobs = 4
        # A sharded fan-out issues ~jobs dispatches and is billed for all
        # of them.
        threshold = BREAK_EVEN_SAFETY * 1e-3 * jobs / (1.0 - 1.0 / jobs)
        assert not model.worth_pooling(threshold * 0.9, jobs)
        assert model.worth_pooling(threshold * 1.1, jobs)

    def test_plan_shards_amortizes_dispatch(self):
        model = CostModel()
        model.observe_dispatch(1e-3)
        target = 1e-3 * TARGET_DISPATCH_MULTIPLE  # 25 ms per shard
        # Plenty of compute: clamped to the oversubscription ceiling.
        assert model.plan_shards(100.0, num_items=1000, jobs=4) == (
            4 * SHARD_OVERSUBSCRIPTION
        )
        # Barely worth pooling: floor at one shard per worker.
        assert model.plan_shards(target * 1.5, num_items=1000, jobs=4) == 4
        # Never more shards than items.
        assert model.plan_shards(100.0, num_items=3, jobs=4) == 3

    def test_uncalibrated_plan_matches_status_quo_bounds(self):
        model = CostModel()
        got = model.plan_shards(0.5, num_items=100, jobs=4)
        assert 4 <= got <= shard_count(100, 4)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / COSTMODEL_FILENAME)
        model = CostModel(path=path)
        model.observe_dispatch(2e-3)
        model.observe_kind("spacing", 10.0, 0.5)
        model.save()
        loaded = CostModel.load(path)
        assert loaded.dispatch_seconds == pytest.approx(2e-3)
        assert loaded.rates["spacing"] == pytest.approx(0.05)
        with open(path, encoding="utf-8") as handle:
            assert set(json.load(handle)) == {"dispatch_seconds", "rates", "version"}

    #: A sidecar as the previous release wrote it, per-rule ``rules`` map
    #: included: the same format version, so its rates and dispatch
    #: constant must survive the upgrade.
    OLDER_SIDECAR = (
        '{"dispatch_seconds": 0.0012, "rates": {"enclosure": 4e-06, '
        '"spacing": 5e-06}, "rules": {"5f1c0a9e3b7d2c4a": 0.0131, '
        '"9d2e4b6a1c3f5e7d": 0.0042}, "version": 1}'
    )

    def test_older_sidecar_keeps_its_calibration(self, tmp_path):
        assert FORMAT_VERSION == 1
        path = tmp_path / COSTMODEL_FILENAME
        path.write_text(self.OLDER_SIDECAR)
        loaded = CostModel.load(str(path))
        assert loaded.dispatch_seconds == pytest.approx(0.0012)
        assert loaded.rates == {
            "enclosure": pytest.approx(4e-06),
            "spacing": pytest.approx(5e-06),
        }
        assert loaded.estimate_kind("spacing", 1000.0) == pytest.approx(5e-03)
        loaded.save()
        with open(path, encoding="utf-8") as handle:
            rewritten = json.load(handle)
        assert "rules" not in rewritten
        assert rewritten["rates"] == json.loads(self.OLDER_SIDECAR)["rates"]

    def test_save_without_path_is_a_noop(self):
        CostModel().save()  # must not raise

    def test_load_missing_or_malformed_yields_fresh(self, tmp_path):
        missing = CostModel.load(str(tmp_path / "nope.json"))
        assert missing.dispatch_seconds is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert CostModel.load(str(bad)).rates == {}

    def test_load_rejects_other_versions(self, tmp_path):
        path = tmp_path / COSTMODEL_FILENAME
        path.write_text(
            json.dumps({"version": 999, "rates": {"spacing": 1.0}})
        )
        assert CostModel.load(str(path)).rates == {}

    def test_load_drops_nonpositive_entries(self, tmp_path):
        path = tmp_path / COSTMODEL_FILENAME
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "dispatch_seconds": -1.0,
                    "rates": {"spacing": 0.0, "width": 0.5, "area": "junk"},
                }
            )
        )
        loaded = CostModel.load(str(path))
        assert loaded.dispatch_seconds is None
        assert loaded.rates == {"width": 0.5}


class _Store:
    def __init__(self, root):
        self.root = str(root)


class TestRegistry:
    def test_no_store_gets_private_models(self):
        assert model_for(None) is not model_for(None)

    def test_same_root_shares_one_model(self, tmp_path):
        store = _Store(tmp_path)
        first = model_for(store)
        assert model_for(_Store(tmp_path)) is first
        first.observe_dispatch(1e-3)
        assert model_for(store).dispatch_seconds == pytest.approx(1e-3)

    def test_registry_loads_persisted_calibration(self, tmp_path):
        model = CostModel(path=str(tmp_path / COSTMODEL_FILENAME))
        model.observe_kind("spacing", 10.0, 0.5)
        model.save()
        reset_models()
        loaded = model_for(_Store(tmp_path))
        assert loaded.rates["spacing"] == pytest.approx(0.05)

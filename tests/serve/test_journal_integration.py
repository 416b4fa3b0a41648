"""End-to-end journal coverage: every lifecycle transition in the
serving and ops layers leaves its record, and the assembled timeline
has no gaps."""

import json

import pytest

from repro.core import AuricConfig, AuricEngine
from repro.core.recommendation import CarrierRecommendation, ParameterRecommendation
from repro.obs import journal as obs_journal
from repro.obs.journal import assemble_timeline, read_journal
from repro.serve import (
    EngineRefresher,
    RecommendationService,
    engine_to_dict,
    load_engine,
    save_engine,
)

from .conftest import SERVE_PARAMETERS


@pytest.fixture()
def journal(tmp_path):
    handle = obs_journal.configure(str(tmp_path / "journal.jsonl"), fsync=False)
    yield handle
    obs_journal.disable()


def events(journal):
    return [entry["event"] for entry in journal.tail()]


class TestEngineEvents:
    def test_fit_emits_fingerprinted_record(self, dataset, journal):
        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        assert engine.lineage is not None
        (entry,) = journal.tail()
        assert entry["event"] == "fit"
        assert entry["scope"] == "engine"
        assert entry["stream"] == engine.lineage
        assert entry["generation"] == 0
        assert entry["fingerprints"]["snapshot"]
        assert entry["duration_s"] > 0
        assert entry["attrs"]["parameters"] == 1
        phases = entry["attrs"]["phases"]
        assert set(phases) >= {"encode", "select", "vote"}

    def test_no_journal_no_lineage_cost(self, dataset):
        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        assert engine.lineage is None


class TestServiceEvents:
    def test_refresh_and_full_refit_chain(self, dataset, journal):
        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        service = RecommendationService(engine)
        refresher = EngineRefresher(service)
        result = refresher.refit()
        assert result.mode == "full"
        tail = journal.tail()
        assert events(journal) == ["fit", "fit", "refresh", "full-refit"]
        refresh = tail[2]
        assert refresh["scope"] == "service"
        assert refresh["stream"] == service.journal_stream
        assert refresh["generation"] == 1
        assert refresh["parent_generation"] == 0
        refit = tail[3]
        assert refit["trigger"] == "manual"
        assert refit["refit"] == {"kind": "full"}
        assert refit["attrs"]["engine_stream"] == service.engine.lineage

    def test_drift_triggered_refit_records_scores(self, dataset, journal):
        from repro.obs.health import attribute_distributions

        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        service = RecommendationService(engine)
        service.enable_drift_tracking(sample_every=1)
        refresher = EngineRefresher(service, auto_refit=True)
        live = attribute_distributions(dataset.network)
        total = sum(live["hardware"].values())
        live["hardware"] = {"RRH9": total}
        check = refresher.check_drift(live=live)
        assert check.refit_triggered
        by_event = {e["event"]: e for e in journal.tail()}
        drift_check = by_event["drift-check"]
        assert drift_check["drift"]["verdict"] == "stale"
        assert drift_check["drift"]["psi_max"] > 0
        assert drift_check["drift"]["drifted"]
        assert drift_check["attrs"]["auto_refit"] is True
        refit = by_event["full-refit"]
        assert refit["trigger"] == "drift"
        assert refit["drift"]["verdict"] == "stale"

    def test_incremental_refit_per_parameter_paths(self, dataset, journal):
        import copy

        from repro.ops.history import ChangeLog, ChangeSource

        store = copy.deepcopy(dataset.store)
        engine = AuricEngine(dataset.network, store).fit(
            list(SERVE_PARAMETERS)
        )
        service = RecommendationService(engine)
        refresher = EngineRefresher(service)
        log = ChangeLog()
        values = store.singular_values("pMax")
        key = sorted(values)[0]
        vocab = sorted({v for v in values.values()}, key=repr)
        new = vocab[0] if values[key] != vocab[0] else vocab[1]
        log.record(key, "pMax", values[key], new, ChangeSource.AURIC_PUSH)
        store.set_singular(key, "pMax", new)
        refresher.refit(log)
        (entry,) = [
            e for e in journal.tail() if e["event"] == "incremental-refit"
        ]
        # A changelog refit that changed a model swaps a new engine in.
        assert entry["generation"] == 1
        assert entry["parent_generation"] == 0
        refit = entry["refit"]
        assert refit["kind"] == "incremental"
        touched = (
            set(refit["refitted"])
            | set(refit["reused_selection"])
            | set(refit["skipped"])
        )
        assert "pMax" in touched
        assert entry["attrs"]["changes"] == 1


class TestFrontAndOpsEvents:
    def test_front_start_and_hot_swap(self, fitted_engine, rulebook, journal):
        from repro.serve.front import ShardSet

        shard_set = ShardSet(
            fitted_engine, rulebook, shards=2, max_queue=8, warm=False
        )
        shard_set.hot_swap(engine=fitted_engine, warm=False)
        by_event = {e["event"]: e for e in journal.tail()}
        start = by_event["front-start"]
        assert start["scope"] == "front"
        assert start["stream"] == shard_set.journal_stream
        assert start["generation"] == 0
        assert start["attrs"]["shards"] == 2
        swap = by_event["hot-swap"]
        assert swap["generation"] == 1
        assert swap["parent_generation"] == 0
        assert swap["duration_s"] >= 0

    def test_push_and_rollback_record(self, dataset, journal):
        from repro.config.managed_objects import build_vendor_schema
        from repro.config.templates import ConfigTemplate
        from repro.ops.controller import ConfigPushController, PushOutcome
        from repro.ops.ems import ElementManagementSystem, EMSConfig
        from repro.ops.monitoring import KPIMonitor
        from repro.types import Vendor

        ems = ElementManagementSystem(
            dataset.network,
            dataset.store,
            EMSConfig(base_timeout_rate=0.0, per_parameter_timeout_rate=0.0),
        )
        schema = build_vendor_schema(Vendor.VENDOR_A, dataset.catalog)
        controller = ConfigPushController(ems, ConfigTemplate(schema))
        carrier_id = sorted(dataset.store.singular_values("pMax"))[0]
        monitor = KPIMonitor(dataset.store, degradation_rate=1.0)
        monitor.snapshot(carrier_id)
        rec = CarrierRecommendation(str(carrier_id))
        rec.add(
            ParameterRecommendation(
                parameter="pMax", value=12.6, support=0.9,
                matched=10, confident=True, scope="local",
            )
        )
        controller.ems.lock_carrier(carrier_id)
        result = controller.push(carrier_id, {"pMax": 0}, rec)
        controller.ems.unlock_carrier(carrier_id)
        assert result.outcome is PushOutcome.PUSHED
        monitor.rollback(carrier_id)
        by_event = {e["event"]: e for e in journal.tail()}
        push = by_event["push"]
        assert push["scope"] == "ops"
        assert push["trigger"] == "recommendation"
        assert push["attrs"]["parameters"] == ["pMax"]
        rollback = by_event["rollback"]
        assert rollback["trigger"] == "kpi-degradation"
        assert rollback["attrs"]["values_restored"] > 0


class TestArtifactReplay:
    """artifact-save / artifact-load appear for every schema vintage the
    loader accepts (v1..v4), and replaying them never breaks the DAG."""

    def test_save_then_load_records_fingerprints(
        self, fitted_engine, dataset, tmp_path, journal
    ):
        path = tmp_path / "engine.json"
        save_engine(fitted_engine, str(path))
        load_engine(str(path), dataset.network, dataset.store)
        saves = [e for e in journal.tail() if e["event"] == "artifact-save"]
        loads = [e for e in journal.tail() if e["event"] == "artifact-load"]
        assert len(saves) == len(loads) == 1
        assert saves[0]["fingerprints"]["artifact"]
        assert (
            saves[0]["fingerprints"]["artifact"]
            == loads[0]["fingerprints"]["artifact"]
        )

    @pytest.mark.parametrize("store", ["memory", "mmap"])
    def test_fit_save_and_load_share_one_snapshot_fingerprint(
        self, dataset, tmp_path, journal, store
    ):
        engine = AuricEngine(
            dataset.network, dataset.store, AuricConfig(store=store)
        ).fit(["pMax", "hysA3Offset"])
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        load_engine(str(path), dataset.network, dataset.store)
        snapshots = [
            entry["fingerprints"]["snapshot"] for entry in journal.tail()
        ]
        assert events(journal) == ["fit", "artifact-save", "artifact-load"]
        assert len(set(snapshots)) == 1
        assert len(snapshots[0]) == 64

    def test_v1_through_v4_loads_replay(
        self, fitted_engine, dataset, tmp_path, journal
    ):
        base = json.loads(json.dumps(engine_to_dict(fitted_engine)))

        v1 = json.loads(json.dumps(base))
        v1["schema_version"] = 1
        v1.pop("columnar", None)
        v1["config"].pop("columnar", None)

        v2 = json.loads(json.dumps(base))
        v2["schema_version"] = 2

        v3 = json.loads(json.dumps(base))
        v3["schema_version"] = 3

        v4 = json.loads(json.dumps(base))
        v4["schema_version"] = 4

        v5 = json.loads(json.dumps(base))
        v5["schema_version"] = 5

        documents = ((1, v1), (2, v2), (3, v3), (4, v4), (5, v5), (6, base))
        for version, payload in documents:
            path = tmp_path / f"engine-v{version}.json"
            path.write_text(json.dumps(payload))
            engine = load_engine(
                str(path),
                dataset.network,
                dataset.store,
                verify_fingerprint=False,
            )
            assert engine.fitted_parameters() == (
                fitted_engine.fitted_parameters()
            )
        loads = [e for e in journal.tail() if e["event"] == "artifact-load"]
        assert [e["attrs"]["schema_version"] for e in loads] == [
            1, 2, 3, 4, 5, 6
        ]
        timeline = assemble_timeline(journal.tail())
        assert timeline.complete


class TestEndToEndTimeline:
    def test_full_lifecycle_has_no_gaps(self, dataset, journal):
        from repro.obs.health import attribute_distributions

        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        service = RecommendationService(engine)
        service.enable_drift_tracking(sample_every=1)
        refresher = EngineRefresher(service, auto_refit=True)
        refresher.refit()
        live = attribute_distributions(dataset.network)
        total = sum(live["hardware"].values())
        live["hardware"] = {"RRH9": total}
        refresher.check_drift(live=live)
        scan = read_journal(journal.path)
        assert scan.skipped == 0
        timeline = assemble_timeline(scan.records)
        assert timeline.complete
        chain = timeline.streams[("service", service.journal_stream)]
        assert sorted(chain) == [0, 1, 2]
        assert chain[0].implicit  # construction-time state
        assert chain[1].parent_generation == 0
        assert chain[2].parent_generation == 1

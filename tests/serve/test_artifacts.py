"""Artifact round-trips: fit once → save → load → identical answers."""

import json

import pytest

from repro.core import AuricEngine
from repro.core.auric import AuricConfig
from repro.serve import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    artifact_summary,
    engine_from_dict,
    engine_to_dict,
    load_engine,
    save_engine,
)

from .conftest import SERVE_PARAMETERS


@pytest.fixture(scope="module")
def reloaded(fitted_engine, dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "engine.json"
    save_engine(fitted_engine, str(path))
    return load_engine(str(path), dataset.network, dataset.store)


class TestRoundTripIdentity:
    def test_fitted_parameters_survive(self, fitted_engine, reloaded):
        assert reloaded.fitted_parameters() == fitted_engine.fitted_parameters()

    def test_dependent_attributes_survive(self, fitted_engine, reloaded):
        for name in SERVE_PARAMETERS:
            assert reloaded.dependent_attribute_names(
                name
            ) == fitted_engine.dependent_attribute_names(name)

    @pytest.mark.parametrize("parameter", ["pMax", "inactivityTimer"])
    @pytest.mark.parametrize("local", [True, False], ids=["local", "global"])
    def test_singular_recommendations_identical(
        self, fitted_engine, reloaded, dataset, parameter, local
    ):
        """Leave-one-out recommendations — the paper's evaluation path —
        must be *exactly* equal (value, support, matched, scope)."""
        carriers = sorted(dataset.store.singular_values(parameter))[:80]
        assert carriers
        for carrier_id in carriers:
            live = fitted_engine.recommend_for_carrier(
                parameter, carrier_id, local=local, leave_one_out=True
            )
            persisted = reloaded.recommend_for_carrier(
                parameter, carrier_id, local=local, leave_one_out=True
            )
            assert live == persisted

    @pytest.mark.parametrize("local", [True, False], ids=["local", "global"])
    def test_pairwise_recommendations_identical(
        self, fitted_engine, reloaded, dataset, local
    ):
        pairs = sorted(dataset.store.pairwise_values("hysA3Offset"))[:80]
        assert pairs
        for pair in pairs:
            live = fitted_engine.recommend_for_pair(
                "hysA3Offset", pair, local=local, leave_one_out=True
            )
            persisted = reloaded.recommend_for_pair(
                "hysA3Offset", pair, local=local, leave_one_out=True
            )
            assert live == persisted

    def test_resave_is_byte_identical(self, fitted_engine, reloaded):
        """Serializing the reloaded engine reproduces the artifact
        byte-for-byte — the round trip loses nothing."""
        original = json.dumps(engine_to_dict(fitted_engine), sort_keys=True)
        resaved = json.dumps(engine_to_dict(reloaded), sort_keys=True)
        assert original == resaved

    def test_config_survives(self, dataset, tmp_path):
        config = AuricConfig(support_threshold=0.6, min_local_votes=5, seed=99)
        engine = AuricEngine(dataset.network, dataset.store, config).fit(["pMax"])
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        loaded = load_engine(str(path), dataset.network, dataset.store)
        assert loaded.config == config


class TestArtifactValidation:
    def test_rejects_unknown_schema_version(self, fitted_engine, dataset):
        payload = engine_to_dict(fitted_engine)
        payload["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        with pytest.raises(ArtifactError, match="schema version"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_rejects_wrong_kind(self, fitted_engine, dataset):
        payload = engine_to_dict(fitted_engine)
        payload["kind"] = "something-else"
        with pytest.raises(ArtifactError, match="not an engine artifact"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_rejects_snapshot_mismatch(self, fitted_engine, dataset):
        payload = engine_to_dict(fitted_engine)
        payload["snapshot_fingerprint"] = "0" * 64
        with pytest.raises(ArtifactError, match="different snapshot"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_mismatch_override(self, fitted_engine, dataset):
        payload = engine_to_dict(fitted_engine)
        payload["snapshot_fingerprint"] = "0" * 64
        engine = engine_from_dict(
            payload, dataset.network, dataset.store, verify_fingerprint=False
        )
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()

    @pytest.mark.parametrize(
        "parameter, field, text",
        [
            ("pMax", "samples", "not-a-key"),
            ("pMax", "weights", "not-a-key"),
            ("pMax", "samples", "0.0.7.0"),  # face out of range
            ("pMax", "samples", 5),  # not a string
            ("hysA3Offset", "samples", "0.0.0.0"),  # no pair separator
            ("hysA3Offset", "weights", "0.0.0.0|0.0.0.0"),  # self-pair
        ],
    )
    def test_malformed_key_is_an_artifact_error(
        self, fitted_engine, dataset, parameter, field, text
    ):
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        model = next(m for m in payload["models"] if m["parameter"] == parameter)
        if field == "samples":
            model["samples"][0][0] = text
        else:
            model["weights"] = {text: 1.0}
        expected = f"model {parameter}: malformed {field}"
        with pytest.raises(ArtifactError, match=expected):
            engine_from_dict(payload, dataset.network, dataset.store)

    @pytest.mark.parametrize(
        "field",
        ["parameter", "pairwise", "dependent_columns", "dependent_names", "samples"],
    )
    def test_model_missing_a_field_is_an_artifact_error(
        self, fitted_engine, dataset, field
    ):
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        model = next(m for m in payload["models"] if m["parameter"] == "pMax")
        del model[field]
        with pytest.raises(ArtifactError, match=f"has no '{field}' field"):
            engine_from_dict(payload, dataset.network, dataset.store)

    @pytest.mark.parametrize("field", ["config", "models"])
    def test_artifact_missing_a_section_is_an_artifact_error(
        self, fitted_engine, dataset, field
    ):
        payload = engine_to_dict(fitted_engine)
        del payload[field]
        with pytest.raises(ArtifactError, match=f"has no '{field}' field"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_malformed_sample_entry_is_an_artifact_error(
        self, fitted_engine, dataset
    ):
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["models"][0]["samples"][0] = ["0.0.0.0"]
        with pytest.raises(ArtifactError, match="malformed samples"):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_models_share_one_key_per_target(self, reloaded):
        """Each key string is parsed once per load: every model holds the
        same ``CarrierId`` object for a carrier."""
        first, second = (
            reloaded.fitted_models()[name] for name in ("pMax", "inactivityTimer")
        )
        shared = first.samples.keys() & second.samples.keys()
        assert shared
        by_value = {key: key for key in second.samples}
        assert all(by_value[key] is key for key in first.samples if key in shared)

    def test_summary_renders(self, fitted_engine):
        text = artifact_summary(engine_to_dict(fitted_engine))
        assert "3 parameter models" in text


class TestColumnarPersistence:
    """Schema v2: the encoded snapshot travels with the artifact."""

    def test_v2_artifact_carries_columnar_section(self, fitted_engine):
        payload = engine_to_dict(fitted_engine)
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert "columnar" in payload
        assert "columnar" not in payload["config"]
        encoded = payload["columnar"]
        assert encoded["carrier_ids"]
        assert {p["parameter"] for p in encoded["parameters"]} >= set(
            SERVE_PARAMETERS
        )

    def test_loaded_engine_adopts_encoded_snapshot(self, reloaded):
        snapshot = reloaded.columnar_snapshot()
        assert snapshot is not None
        for name in SERVE_PARAMETERS:
            assert snapshot.has_parameter(name)

    def test_v1_artifact_still_loads(self, fitted_engine, dataset):
        """Pre-columnar documents lack the section; they load with
        defaults and re-encode on first use."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = 1
        payload.pop("columnar")
        assert "columnar" not in payload["config"]
        engine = engine_from_dict(payload, dataset.network, dataset.store)
        assert engine.columnar_snapshot() is None
        assert engine.config == fitted_engine.config
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()

    def test_legacy_config_round_trips_without_snapshot(
        self, fitted_engine, dataset
    ):
        """v2-v4 documents written by an engine pinned to the removed
        tuple path carry ``config.columnar: false`` and no snapshot
        section; the flag is ignored and the answers are the live
        engine's."""
        carriers = list(dataset.network.carriers())[:40]
        for version in (2, 3, 4):
            payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
            payload["schema_version"] = version
            payload["config"]["columnar"] = False
            payload.pop("columnar")
            loaded = engine_from_dict(payload, dataset.network, dataset.store)
            assert loaded.config == fitted_engine.config
            assert loaded.columnar_snapshot() is None
            for carrier in carriers:
                for local in (True, False):
                    for name in ("pMax", "inactivityTimer"):
                        assert loaded.recommend_for_carrier(
                            name, carrier.carrier_id, local=local
                        ) == fitted_engine.recommend_for_carrier(
                            name, carrier.carrier_id, local=local
                        ), (version, carrier.carrier_id, local, name)

    def test_min_local_votes_below_one_rejected_on_load(
        self, fitted_engine, dataset
    ):
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["config"]["min_local_votes"] = 0
        with pytest.raises(ValueError, match="min_local_votes"):
            engine_from_dict(payload, dataset.network, dataset.store)


class TestDriftBaselinePersistence:
    """Schema v3: the fit-time drift baseline travels with the artifact."""

    def test_v3_artifact_carries_drift_baseline(self, fitted_engine):
        payload = engine_to_dict(fitted_engine)
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        baseline = payload["drift_baseline"]
        assert baseline["carrier_count"] > 0
        assert "carrier_frequency" in baseline["attributes"]
        assert set(baseline["parameters"]) >= set(SERVE_PARAMETERS)

    def test_loaded_engine_keeps_baseline(self, fitted_engine, reloaded):
        assert reloaded.drift_baseline is not None
        assert (
            reloaded.drift_baseline.to_dict()
            == fitted_engine.drift_baseline.to_dict()
        )

    def test_v2_artifact_still_loads(self, fitted_engine, dataset):
        """Pre-drift documents lack the baseline section; they load and
        serve (the baseline stays None until the next fit)."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = 2
        payload.pop("drift_baseline")
        engine = engine_from_dict(payload, dataset.network, dataset.store)
        assert engine.drift_baseline is None
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()

    def test_baseline_json_round_trips(self, fitted_engine, dataset, tmp_path):
        path = tmp_path / "engine.json"
        save_engine(fitted_engine, str(path))
        loaded = load_engine(str(path), dataset.network, dataset.store)
        assert (
            loaded.drift_baseline.to_dict()
            == fitted_engine.drift_baseline.to_dict()
        )


class TestExternalStorePersistence:
    """Schema v4: the encoded snapshot can live in an external
    :mod:`repro.store` backend referenced by the artifact."""

    def _fit(self, dataset, store_kind):
        config = AuricConfig(store=store_kind)
        return AuricEngine(dataset.network, dataset.store, config).fit(
            list(SERVE_PARAMETERS)
        )

    @pytest.mark.parametrize("kind", ["file", "mmap"])
    def test_store_ref_replaces_inline_columnar(self, dataset, tmp_path, kind):
        engine = self._fit(dataset, kind)
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert payload["config"]["store"] == kind
        assert "columnar" not in payload
        ref = payload["columnar_store"]
        assert ref["kind"] == kind
        # The ref is relative: the store sits next to the artifact.
        assert "/" not in ref["path"]
        assert (tmp_path / ref["path"]).exists()

    @pytest.mark.parametrize("kind", ["file", "mmap"])
    def test_load_adopts_external_snapshot(self, dataset, tmp_path, kind):
        engine = self._fit(dataset, kind)
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        loaded = load_engine(str(path), dataset.network, dataset.store)
        snapshot = loaded.columnar_snapshot()
        assert snapshot is not None
        for name in SERVE_PARAMETERS:
            assert snapshot.has_parameter(name)
        live = engine.recommend_for_carrier(
            "pMax",
            sorted(dataset.store.singular_values("pMax"))[0],
            local=False,
            leave_one_out=True,
        )
        persisted = loaded.recommend_for_carrier(
            "pMax",
            sorted(dataset.store.singular_values("pMax"))[0],
            local=False,
            leave_one_out=True,
        )
        assert live == persisted

    @pytest.mark.parametrize("kind", ["file", "mmap"])
    def test_save_open_resave_is_byte_identical(self, dataset, tmp_path, kind):
        """save → load → save to the *same basename* reproduces both the
        artifact JSON and the store file byte-for-byte."""
        engine = self._fit(dataset, kind)
        first = tmp_path / "a" / "engine.json"
        second = tmp_path / "b" / "engine.json"
        first.parent.mkdir()
        second.parent.mkdir()
        save_engine(engine, str(first))
        loaded = load_engine(str(first), dataset.network, dataset.store)
        save_engine(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()
        suffix = ".columnar.json" if kind == "file" else ".columnar"
        store_a = first.parent / f"engine.json{suffix}"
        store_b = second.parent / f"engine.json{suffix}"
        assert store_a.read_bytes() == store_b.read_bytes()

    def test_missing_store_file_raises(self, dataset, tmp_path):
        engine = self._fit(dataset, "mmap")
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        (tmp_path / "engine.json.columnar").unlink()
        with pytest.raises(ArtifactError, match="columnar store"):
            load_engine(str(path), dataset.network, dataset.store)

    def test_memory_store_keeps_inline_columnar(self, dataset, tmp_path):
        engine = self._fit(dataset, "memory")
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        payload = json.loads(path.read_text())
        assert "columnar" in payload
        assert "columnar_store" not in payload
        assert payload["config"]["store"] == "memory"

    def test_v3_artifact_without_store_field_loads(self, fitted_engine, dataset):
        """Pre-store documents lack config.store and the ref section;
        they load with the memory default."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = 3
        payload["config"].pop("store")
        engine = engine_from_dict(payload, dataset.network, dataset.store)
        assert engine.config.store == "memory"
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()

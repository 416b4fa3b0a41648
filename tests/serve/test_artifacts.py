"""Artifact round-trips: fit once → save → load → identical answers."""

import copy
import json
import shutil

import pytest

from repro.config.store import PairKey
from repro.core import AuricEngine, NewCarrierRequest
from repro.core.auric import AuricConfig
from repro.core.columnar import ColumnarSnapshot
from repro.core.recommendation import RecommendRequest
from repro.datagen import tiny_workload
from repro.dataio import dataset_to_dict, snapshot_from_dict
from repro.dataio.keys import carrier_key_to_str
from repro.ops.history import ChangeLog, ChangeSource
from repro.serve import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    RecommendationService,
    artifact_summary,
    engine_from_dict,
    engine_to_dict,
    load_engine,
    save_engine,
)
from repro.serve.refresh import EngineRefresher
from repro.store import MmapSnapshotStore

from tests.conftest import model_state

from .conftest import SERVE_PARAMETERS

SINGULAR = tuple(n for n in SERVE_PARAMETERS if n != "hysA3Offset")


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
            ("pMax", "weights", "not-a-key"),
            ("pMax", "weights", "0.0.7.0"),  # face out of range
            ("pMax", "weights", 5),  # not a string
            ("hysA3Offset", "weights", "0.0.0.0"),  # no pair separator
            ("hysA3Offset", "weights", "0.0.0.0|0.0.0.0"),  # self-pair
        ],
    )
    def test_malformed_key_is_an_artifact_error(
        self, fitted_engine, dataset, parameter, field, text
    ):
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        model = next(m for m in payload["models"] if m["parameter"] == parameter)
        model[field] = {text: 1.0}
        expected = f"model {parameter}: malformed {field}"
        with pytest.raises(ArtifactError, match=expected):
            engine_from_dict(payload, dataset.network, dataset.store)

    @pytest.mark.parametrize(
        "field",
        ["parameter", "pairwise", "dependent_columns", "dependent_names"],
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

    def test_selection_naming_other_attributes_is_an_artifact_error(
        self, fitted_engine, dataset
    ):
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        model = next(m for m in payload["models"] if m["parameter"] == "pMax")
        model["dependent_names"] = list(reversed(model["dependent_names"]))
        model["dependent_names"].append("carrier_frequency")
        with pytest.raises(ArtifactError, match="do not name"):
            engine_from_dict(payload, dataset.network, dataset.store)

    @pytest.mark.parametrize(
        "ref, expected",
        [
            ("engine.json.columnar", "not an object"),
            (["mmap", "engine.json.columnar"], "not an object"),
            (None, "not an object"),
            ({"kind": "carrier-pigeon", "path": "x"}, "unknown store kind"),
            ({"kind": "memory"}, "unknown store kind"),
            ({"kind": "mmap"}, "has no path"),
            ({"kind": "mmap", "path": ""}, "has no path"),
            ({"kind": "mmap", "path": 7}, "has no path"),
        ],
        ids=[
            "string",
            "list",
            "null",
            "unknown-kind",
            "memory-kind",
            "no-path",
            "empty-path",
            "non-string-path",
        ],
    )
    def test_malformed_store_reference_is_an_artifact_error(
        self, fitted_engine, dataset, ref, expected
    ):
        payload = engine_to_dict(fitted_engine)
        payload["columnar_store"] = ref
        with pytest.raises(ArtifactError, match=expected):
            engine_from_dict(payload, dataset.network, dataset.store)

    def test_models_share_one_key_per_target(self, reloaded, dataset):
        """Every model derives its keys from the one snapshot a load
        builds over: all hold the network's ``CarrierId`` object for a
        carrier."""
        first, second = (
            reloaded.fitted_models()[name].encoded.targets()
            for name in ("pMax", "inactivityTimer")
        )
        shared = first.keys() & second.keys()
        assert shared
        by_value = {key: key for key in second}
        assert all(by_value[key] is key for key in first if key in shared)
        assert all(
            dataset.network.carrier(key).carrier_id is key for key in shared
        )

    def test_summary_renders(self, fitted_engine):
        text = artifact_summary(engine_to_dict(fitted_engine))
        assert "3 parameter models" in text


def _legacy_columnar_section(snapshot):
    """The inline ``columnar`` section v2–v4 memory artifacts carried."""
    return {
        "carrier_ids": [carrier_key_to_str(c) for c in snapshot.carrier_ids],
        "codes": snapshot.codes.tolist(),
        "vocabs": [list(vocab) for vocab in snapshot.vocabs],
        "parameters": [
            {
                "parameter": name,
                "pairwise": columns.pairwise,
                "sources": columns.sources.tolist(),
                "neighbors": (
                    None
                    if columns.neighbors is None
                    else columns.neighbors.tolist()
                ),
                "label_codes": columns.label_codes.tolist(),
                "label_vocab": list(columns.label_vocab),
            }
            for name, columns in sorted(snapshot.parameters.items())
        ],
    }


class TestColumnarPersistence:
    """A memory artifact carries no encoded snapshot: a load encodes the
    live one and rebuilds every model over it."""

    def test_memory_artifact_carries_no_snapshot(self, fitted_engine):
        assert fitted_engine.columnar_snapshot() is not None
        payload = engine_to_dict(fitted_engine)
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert payload["config"]["store"] == "memory"
        assert "columnar" not in payload
        assert "columnar_store" not in payload
        assert "columnar" not in payload["config"]

    def test_loaded_engine_encodes_the_live_snapshot(
        self, fitted_engine, reloaded
    ):
        snapshot = reloaded.columnar_snapshot()
        assert snapshot is not None and snapshot.codes.flags.writeable
        network = fitted_engine.network
        assert snapshot.fingerprint(
            network, SERVE_PARAMETERS
        ) == fitted_engine.columnar_snapshot().fingerprint(
            network, SERVE_PARAMETERS
        )

    def test_loaded_engine_serves_like_the_fitted_engine(
        self, fitted_engine, dataset, rulebook, tmp_path
    ):
        """Leave-one-out local and global, new-carrier and explain
        requests — batched — plus pair-wise neighbor recommendations all
        answer like the fitted engine, and serving never re-encodes."""
        path = tmp_path / "engine.json"
        save_engine(fitted_engine, str(path))
        loaded = load_engine(str(path), dataset.network, dataset.store)
        snapshot = loaded.columnar_snapshot()
        carriers = list(dataset.network.carriers())[:16]
        batch = [
            RecommendRequest(
                carrier_id=carrier.carrier_id,
                parameters=SINGULAR,
                leave_one_out=True,
                local=(i % 2 == 0),
                explain=(i % 3 == 0),
            )
            for i, carrier in enumerate(carriers)
        ]
        templates = []
        for enodeb in dataset.network.enodebs():
            for template in enodeb.carriers():
                templates.append((enodeb.enodeb_id, template))
            if len(templates) >= 16:
                break
        batch += [
            RecommendRequest(
                attributes=template.attributes,
                enodeb_id=enodeb_id if i % 2 == 0 else None,
                parameters=SINGULAR,
                explain=(i % 3 == 0),
            )
            for i, (enodeb_id, template) in enumerate(templates)
        ]
        live = RecommendationService(fitted_engine, rulebook)
        served = RecommendationService(loaded, rulebook)
        for got, expected in zip(
            served.handle_batch(batch), live.handle_batch(batch)
        ):
            assert got.recommendation == expected.recommendation
            assert got.source == expected.source
            assert got.exclude == expected.exclude
            assert (got.explain is None) == (expected.explain is None)
            if expected.explain is not None:
                for name, want in expected.explain.parameters.items():
                    have = got.explain.parameters[name]
                    assert have.votes == want.votes, name
                    assert have.scope == want.scope, name
                    assert have.fallback_reason == want.fallback_reason, name
                    assert have.cache == want.cache, name
        for enodeb_id, template in templates[:4]:
            request = NewCarrierRequest(
                attributes=template.attributes,
                enodeb_id=enodeb_id,
                neighbor_carriers=tuple(
                    sorted(fitted_engine.neighborhood_of(template.carrier_id))[:3]
                ),
            )
            assert served.recommend_neighbors(
                request, parameters=["hysA3Offset"]
            ) == live.recommend_neighbors(request, parameters=["hysA3Offset"])
        assert loaded.columnar_snapshot() is snapshot

    def test_memory_artifact_resave_is_byte_identical(
        self, fitted_engine, dataset, tmp_path
    ):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_engine(fitted_engine, str(first))
        loaded = load_engine(str(first), dataset.network, dataset.store)
        save_engine(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("legacy", ["inline-section", "file-store"])
    def test_legacy_document_loads_as_memory(
        self, fitted_engine, dataset, tmp_path, legacy
    ):
        """A v4 memory document with the inline ``columnar`` section, or
        one from the removed JSON-file store (``config.store: "file"``
        plus a ``file`` reference), loads over the live snapshot, answers
        like the fitted engine and re-saves byte-identical to the fitted
        engine's memory artifact, so with neither section."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        if legacy == "inline-section":
            payload["columnar"] = _legacy_columnar_section(
                fitted_engine.columnar_snapshot()
            )
        else:
            payload["config"]["store"] = "file"
            payload["columnar_store"] = {
                "kind": "file",
                "path": "engine.json.columnar.json",
            }
        loaded = engine_from_dict(
            payload, dataset.network, dataset.store, base_dir=str(tmp_path)
        )
        assert loaded.config == fitted_engine.config
        assert loaded.columnar_snapshot().codes.flags.writeable
        for carrier in list(dataset.network.carriers())[:40]:
            for local in (True, False):
                for name in SINGULAR:
                    assert loaded.recommend_for_carrier(
                        name, carrier.carrier_id, local=local, leave_one_out=True
                    ) == fitted_engine.recommend_for_carrier(
                        name, carrier.carrier_id, local=local, leave_one_out=True
                    ), (carrier.carrier_id, local, name)
        first, second = tmp_path / "fitted.json", tmp_path / "legacy.json"
        save_engine(fitted_engine, str(first))
        save_engine(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_v1_artifact_still_loads(self, fitted_engine, dataset):
        """Pre-columnar documents lack the section; they load with
        defaults over the live snapshot."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = 1
        payload.pop("columnar", None)
        assert "columnar" not in payload["config"]
        engine = engine_from_dict(
            payload, dataset.network, dataset.store, verify_fingerprint=False
        )
        assert engine.columnar_snapshot().codes.flags.writeable
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
            payload.pop("columnar", None)
            loaded = engine_from_dict(
                payload,
                dataset.network,
                dataset.store,
                verify_fingerprint=False,
            )
            assert loaded.config == fitted_engine.config
            assert loaded.columnar_snapshot().codes.flags.writeable
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("support_threshold", 0.0),
            ("support_threshold", 1.5),
            ("p_value", 0.0),
            ("p_value", 1.0),
            ("min_effect_size", -0.1),
            ("min_effect_size", 1.5),
            ("selection", "bogus"),
            ("store", "carrier-pigeon"),
        ],
    )
    def test_out_of_range_config_rejected_on_load(
        self, fitted_engine, dataset, field, value
    ):
        """A load runs no selection, so only the config's own checks
        stand between these values and a served engine."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["config"][field] = value
        with pytest.raises(ValueError, match=field):
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
        engine = engine_from_dict(
            payload, dataset.network, dataset.store, verify_fingerprint=False
        )
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

    @pytest.mark.parametrize("kind", ["mmap"])
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

    @pytest.mark.parametrize("kind", ["mmap"])
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

    @pytest.mark.parametrize("kind", ["mmap"])
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

    def test_memory_store_writes_no_snapshot(self, dataset, tmp_path):
        engine = self._fit(dataset, "memory")
        path = tmp_path / "engine.json"
        save_engine(engine, str(path))
        payload = json.loads(path.read_text())
        assert "columnar" not in payload
        assert "columnar_store" not in payload
        assert payload["config"]["store"] == "memory"
        assert [p.name for p in tmp_path.iterdir()] == ["engine.json"]

    def test_v3_artifact_without_store_field_loads(self, fitted_engine, dataset):
        """Pre-store documents lack config.store and the ref section;
        they load with the memory default."""
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = 3
        payload["config"].pop("store")
        engine = engine_from_dict(
            payload, dataset.network, dataset.store, verify_fingerprint=False
        )
        assert engine.config.store == "memory"
        assert engine.fitted_parameters() == fitted_engine.fitted_parameters()


def _with_samples(payload, engine, version):
    """``payload`` as a v1–v4 document: each model also carries its
    samples, derived from the fitted engine's vote arrays."""
    document = json.loads(json.dumps(payload))
    document["schema_version"] = version
    for model in document["models"]:
        fitted = engine.fitted_models()[model["parameter"]]
        model["samples"] = [
            [_key_str(key), list(cell), label]
            for key, (cell, label) in fitted.encoded.targets().items()
        ]
    if version < 4:
        document["config"].pop("store")
    if version < 3:
        document.pop("drift_baseline")
    return document


def _key_str(key):
    from repro.dataio.keys import pair_key_to_str

    if isinstance(key, PairKey):
        return pair_key_to_str(key)
    return carrier_key_to_str(key)


class TestSchemaV5:
    """v5 stores each model's selection, not its samples; older
    documents load with their samples unread."""

    def test_v5_artifact_carries_no_samples(self, fitted_engine):
        payload = engine_to_dict(fitted_engine)
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION == 6
        for model in payload["models"]:
            assert sorted(model) == sorted([
                "parameter",
                "pairwise",
                "dependent_columns",
                "dependent_names",
                "dependent_stats",
                "weights",
            ])

    @pytest.mark.parametrize("version", [1, 4])
    def test_old_document_loads_like_a_fresh_fit(
        self, fitted_engine, dataset, version
    ):
        document = _with_samples(
            engine_to_dict(fitted_engine), fitted_engine, version
        )
        assert all(model["samples"] for model in document["models"])
        loaded = engine_from_dict(
            document, dataset.network, dataset.store, verify_fingerprint=False
        )
        fresh = AuricEngine(dataset.network, dataset.store).fit(
            list(SERVE_PARAMETERS)
        )
        assert loaded.fitted_parameters() == fresh.fitted_parameters()
        for name in SERVE_PARAMETERS:
            assert model_state(loaded.fitted_models()[name]) == model_state(
                fresh.fitted_models()[name]
            ), name
        for carrier in list(dataset.network.carriers())[:40]:
            for local in (True, False):
                assert loaded.recommend_for_carrier(
                    "pMax", carrier.carrier_id, local=local
                ) == fresh.recommend_for_carrier(
                    "pMax", carrier.carrier_id, local=local
                )

    def test_old_document_samples_are_not_read(self, fitted_engine, dataset):
        """The samples of a v4 document never reach the votes, even when
        they disagree with the snapshot."""
        document = _with_samples(
            engine_to_dict(fitted_engine), fitted_engine, 4
        )
        for model in document["models"]:
            model["samples"] = [["not-a-key", [], None]]
        loaded = engine_from_dict(
            document, dataset.network, dataset.store, verify_fingerprint=False
        )
        for name in SERVE_PARAMETERS:
            assert model_state(loaded.fitted_models()[name]) == model_state(
                fitted_engine.fitted_models()[name]
            ), name


class TestSchemaV6:
    """v6 binds the digest of the encoded snapshot: a verifying load
    checks the live snapshot and the mmap store it builds from against
    it, and refuses the dataset-JSON digest of v1–v5 documents."""

    PARAMETERS = ["pMax", "inactivityTimer"]

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_verifying_load_refuses_an_old_document(
        self, fitted_engine, dataset, version
    ):
        payload = json.loads(json.dumps(engine_to_dict(fitted_engine)))
        payload["schema_version"] = version
        with pytest.raises(
            ArtifactError,
            match=rf"schema v{version} .*--no-verify-artifact\), then save",
        ):
            engine_from_dict(payload, dataset.network, dataset.store)

    def _save_mmap(self, network, store, path):
        engine = AuricEngine(network, store, AuricConfig(store="mmap")).fit(
            self.PARAMETERS
        )
        path.parent.mkdir()
        save_engine(engine, str(path))
        return engine

    def test_verifying_load_refuses_a_foreign_store(self, dataset, tmp_path):
        """An mmap artifact whose store file holds another snapshot's
        columns would build its models over that snapshot."""
        path = tmp_path / "a" / "engine.json"
        engine = self._save_mmap(dataset.network, dataset.store, path)
        store = copy.deepcopy(dataset.store)
        values = store.singular_values("pMax")
        vocab = sorted(set(values.values()), key=repr)
        for key in sorted(values)[::3]:
            store.set_singular(
                key, "pMax", next(v for v in vocab if v != values[key])
            )
        foreign = tmp_path / "b" / "engine.json"
        self._save_mmap(dataset.network, store, foreign)
        shutil.copyfile(f"{foreign}.columnar", f"{path}.columnar")
        with pytest.raises(ArtifactError, match="columnar store"):
            load_engine(str(path), dataset.network, dataset.store)
        loaded = load_engine(
            str(path), dataset.network, dataset.store, verify_fingerprint=False
        )
        assert model_state(loaded.fitted_models()["pMax"]) != model_state(
            engine.fitted_models()["pMax"]
        )

    def test_verifying_load_refuses_a_store_of_other_carriers(
        self, dataset, tmp_path
    ):
        """A store file holding another network's carriers is refused
        before its digest maps this network's X2 relations to slots."""
        path = tmp_path / "a" / "engine.json"
        self._save_mmap(dataset.network, dataset.store, path)
        other = tiny_workload()
        specs = [other.catalog.spec(name) for name in self.PARAMETERS]
        MmapSnapshotStore(f"{path}.columnar").persist(
            ColumnarSnapshot.encode(other.network, other.store, specs)
        )
        with pytest.raises(
            ArtifactError,
            match="columnar store holds another snapshot's carriers",
        ):
            load_engine(str(path), dataset.network, dataset.store)

    def test_verified_mmap_load_keys_slots_by_the_networks_ids(
        self, dataset, tmp_path
    ):
        path = tmp_path / "a" / "engine.json"
        self._save_mmap(dataset.network, dataset.store, path)
        loaded = load_engine(str(path), dataset.network, dataset.store)
        assert not loaded.columnar_snapshot().codes.flags.writeable
        slots = loaded.carrier_slots()
        assert len(slots) == dataset.network.carrier_count()
        assert all(
            dataset.network.carrier(key).carrier_id is key for key in slots
        )


class TestUnverifiedLoad:
    """Under ``verify_fingerprint=False`` against a changed store, a
    memory artifact rebuilds over the live values and an mmap artifact
    over its store."""

    @pytest.fixture
    def changed(self, dataset, tmp_path):
        store = copy.deepcopy(dataset.store)
        engine = AuricEngine(dataset.network, store).fit(["pMax"])
        memory = tmp_path / "memory.json"
        mapped = tmp_path / "mapped.json"
        save_engine(engine, str(memory))
        save_engine(
            AuricEngine(
                dataset.network, store, AuricConfig(store="mmap")
            ).fit(["pMax"]),
            str(mapped),
        )
        values = store.singular_values("pMax")
        vocab = sorted(set(values.values()), key=repr)
        for key in sorted(values)[:60]:
            store.set_singular(
                key, "pMax", next(v for v in vocab if v != values[key])
            )
        return engine, store, memory, mapped

    def test_memory_artifact_votes_from_the_live_snapshot(
        self, dataset, changed
    ):
        engine, store, memory, _ = changed
        with pytest.raises(ArtifactError, match="different snapshot"):
            load_engine(str(memory), dataset.network, store)
        loaded = load_engine(
            str(memory), dataset.network, store, verify_fingerprint=False
        )
        model = loaded.fitted_models()["pMax"]
        live = store.singular_values("pMax")
        assert {
            key: label for key, (_, label) in model.encoded.targets().items()
        } == live
        fitted = engine.fitted_models()["pMax"]
        rebuilt = AuricEngine(dataset.network, store)._build_columnar_model(
            fitted.spec, fitted.dependent_columns, fitted.dependent_stats
        )
        assert model_state(model) == model_state(rebuilt)
        assert model_state(model) != model_state(fitted)

    def test_mmap_artifact_votes_from_its_store(self, dataset, changed):
        engine, store, _, mapped = changed
        loaded = load_engine(
            str(mapped), dataset.network, store, verify_fingerprint=False
        )
        assert not loaded.columnar_snapshot().codes.flags.writeable
        assert model_state(loaded.fitted_models()["pMax"]) == model_state(
            engine.fitted_models()["pMax"]
        )
        for carrier_id in sorted(store.singular_values("pMax"))[:80]:
            for local in (True, False):
                assert loaded.recommend_for_carrier(
                    "pMax", carrier_id, local=local
                ) == engine.recommend_for_carrier(
                    "pMax", carrier_id, local=local
                )


class TestSaveAfterTheStoreMoved:
    """An artifact binds the store as it is at the save, and a load
    rebuilds the models over it: ``save_engine`` refuses an engine whose
    store moved after its fit, and saves the changelog refit of it."""

    @staticmethod
    def flip(store, count=40):
        log = ChangeLog()
        values = store.singular_values("pMax")
        vocab = sorted(set(values.values()), key=repr)
        for key in sorted(values)[:count]:
            old = values[key]
            new = next(v for v in vocab if v != old)
            store.set_singular(key, "pMax", new)
            log.record(key, "pMax", old, new, ChangeSource.MANUAL)
        return log

    def test_save_refuses_a_moved_store(self, dataset, tmp_path):
        store = copy.deepcopy(dataset.store)
        engine = AuricEngine(dataset.network, store).fit(["pMax", "inactivityTimer"])
        self.flip(store)
        path = tmp_path / "engine.json"
        with pytest.raises(ArtifactError, match="pMax") as raised:
            save_engine(engine, str(path))
        assert "inactivityTimer" not in str(raised.value)
        assert not path.exists()

    def test_save_refuses_moved_attributes(self, dataset, tmp_path):
        """Carrier attributes the models were not built from make the
        artifact load as another engine, like moved values do."""
        snapshot = snapshot_from_dict(
            dataset_to_dict(dataset.network, dataset.store)
        )
        engine = AuricEngine(snapshot.network, snapshot.store).fit(
            ["pMax", "inactivityTimer"]
        )
        carriers = list(snapshot.network.carriers())
        frequencies = sorted(
            {c.attributes["carrier_frequency"] for c in carriers}
        )
        for carrier in carriers[::3]:
            old = carrier.attributes["carrier_frequency"]
            carrier.attributes = carrier.attributes.replace(
                carrier_frequency=next(f for f in frequencies if f != old)
            )
        path = tmp_path / "engine.json"
        with pytest.raises(ArtifactError, match="carrier attributes") as err:
            save_engine(engine, str(path))
        assert "pMax" not in str(err.value)
        assert not path.exists()

    def test_changelog_refit_saves_and_reloads_like_the_refit(
        self, dataset, tmp_path
    ):
        store = copy.deepcopy(dataset.store)
        engine = AuricEngine(dataset.network, store).fit(["pMax", "inactivityTimer"])
        refresher = EngineRefresher(RecommendationService(engine))
        refresher.refit(self.flip(store))
        refit = refresher.service.engine
        assert refit is not engine
        path = str(tmp_path / "engine.json")
        save_engine(refit, path)
        loaded = load_engine(path, dataset.network, store)
        for carrier_id in sorted(store.singular_values("pMax")):
            for local in (False, True):
                assert loaded.recommend_for_carrier(
                    "pMax", carrier_id, local=local
                ) == refit.recommend_for_carrier("pMax", carrier_id, local=local)

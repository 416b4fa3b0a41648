"""Tests for dataset serialization (export/load round-trips)."""

import csv
import hashlib
import json

import pytest

from repro.config.store import PairKey
from repro.core import AuricEngine
from repro.datagen import four_markets_workload
from repro.dataio import (
    dataset_to_dict,
    export_attributes_csv,
    export_dataset_json,
    export_parameter_csv,
    load_dataset_json,
    snapshot_fingerprint,
    snapshot_from_dict,
)
from repro.dataio.keys import (
    carrier_key_from_str,
    carrier_key_to_str,
    pair_key_from_str,
    pair_key_to_str,
)
from repro.exceptions import GenerationError
from repro.netmodel.attributes import ATTRIBUTE_SCHEMA
from repro.netmodel.identifiers import CarrierId, ENodeBId, MarketId


class TestKeys:
    def test_carrier_roundtrip(self):
        cid = CarrierId(ENodeBId(MarketId(3), 42), 2, 1)
        assert carrier_key_from_str(carrier_key_to_str(cid)) == cid

    def test_pair_roundtrip(self):
        a = CarrierId(ENodeBId(MarketId(0), 1), 0, 0)
        b = CarrierId(ENodeBId(MarketId(0), 2), 0, 0)
        pair = PairKey(a, b)
        assert pair_key_from_str(pair_key_to_str(pair)) == pair

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            carrier_key_from_str("not-a-key")
        with pytest.raises(ValueError):
            pair_key_from_str("0.0.0.0")  # missing separator


class TestJsonRoundtrip:
    @pytest.fixture(scope="class")
    def snapshot(self, dataset):
        return snapshot_from_dict(dataset_to_dict(dataset.network, dataset.store))

    def test_counts_preserved(self, dataset, snapshot):
        assert snapshot.network.carrier_count() == dataset.network.carrier_count()
        assert snapshot.network.enodeb_count() == dataset.network.enodeb_count()
        assert snapshot.network.market_count() == dataset.network.market_count()

    def test_attributes_preserved(self, dataset, snapshot):
        for carrier in list(dataset.network.carriers())[:25]:
            loaded = snapshot.network.carrier(carrier.carrier_id)
            assert loaded.attributes.values == carrier.attributes.values

    def test_x2_preserved(self, dataset, snapshot):
        assert (
            snapshot.network.x2.carrier_relation_count()
            == dataset.network.x2.carrier_relation_count()
        )

    def test_singular_values_preserved(self, dataset, snapshot):
        assert snapshot.store.singular_values("pMax") == (
            dataset.store.singular_values("pMax")
        )

    def test_pairwise_values_preserved(self, dataset, snapshot):
        assert snapshot.store.pairwise_values("hysA3Offset") == (
            dataset.store.pairwise_values("hysA3Offset")
        )

    def test_engine_runs_on_loaded_snapshot(self, snapshot):
        engine = AuricEngine(snapshot.network, snapshot.store).fit(["pMax"])
        carrier = next(snapshot.network.carriers()).carrier_id
        rec = engine.recommend_for_carrier("pMax", carrier)
        assert rec.parameter == "pMax"

    def test_file_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "snapshot.json"
        export_dataset_json(dataset, str(path))
        loaded = load_dataset_json(str(path))
        assert loaded.network.carrier_count() == dataset.network.carrier_count()

    def test_bare_network_requires_store(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            export_dataset_json(dataset.network, str(tmp_path / "x.json"))

    def test_unsupported_schema_version(self):
        with pytest.raises(GenerationError):
            snapshot_from_dict({"schema_version": 99})


class TestCsvExports:
    def test_attributes_csv(self, dataset, tmp_path):
        path = tmp_path / "attributes.csv"
        rows = export_attributes_csv(dataset.network, str(path))
        assert rows == dataset.network.carrier_count()
        with open(path) as handle:
            reader = csv.reader(handle)
            header = next(reader)
            assert header[0] == "carrier_id"
            assert "carrier_frequency" in header
            first = next(reader)
            assert len(first) == len(header)

    def test_singular_parameter_csv(self, dataset, tmp_path):
        path = tmp_path / "pmax.csv"
        rows = export_parameter_csv(dataset.store, "pMax", str(path))
        assert rows == len(dataset.store.singular_values("pMax"))

    def test_pairwise_parameter_csv(self, dataset, tmp_path):
        path = tmp_path / "hys.csv"
        rows = export_parameter_csv(dataset.store, "hysA3Offset", str(path))
        assert rows == len(dataset.store.pairwise_values("hysA3Offset"))
        with open(path) as handle:
            header = next(csv.reader(handle))
            assert header == ["carrier_id", "neighbor_id", "hysA3Offset"]


#: ``four_markets_workload(scale=0.005)``'s snapshot fingerprint and the
#: sha256 of ``json.dumps(dataset_to_dict(...))``, frozen from the
#: earlier one-scan-per-parameter config code.  Saved artifacts embed the fingerprint,
#: and the export's key order is the import's insertion order, which
#: sets vote tie-breaks: both must stay byte-identical.
PINNED_FINGERPRINT = (
    "1c0c85456bde236acd3345aa5f32642d241455cc66367e0b10ab6ec1051f7823"
)
PINNED_EXPORT_SHA256 = (
    "94d0f9523f3413b37091467343d47f836650ef0fe5616c50c1552be84fa04c6c"
)


def _change_singular(snapshot):
    store = snapshot.store
    carrier = sorted(store.carriers())[0]
    old = store.get_singular(carrier, "pMax")
    new = next(v for v in store.singular_values("pMax").values() if v != old)
    store.set_singular(carrier, "pMax", new)


def _change_pairwise(snapshot):
    store = snapshot.store
    pair = sorted(store.pairs())[0]
    name, old = next(iter(store.pair_config(pair).items()))
    new = next(v for v in store.pairwise_values(name).values() if v != old)
    store.set_pairwise(pair, name, new)


def _change_attribute(snapshot):
    first, *rest = snapshot.network.carriers()
    name, value = next(
        (name, other.attributes[name])
        for other in rest
        for name in ATTRIBUTE_SCHEMA.names
        if other.attributes[name] != first.attributes[name]
    )
    first.attributes = first.attributes.replace(**{name: value})


def _add_x2_edge(snapshot):
    x2 = snapshot.network.x2
    first, *rest = (c.carrier_id for c in snapshot.network.carriers())
    related = set(x2.carrier_neighbors(first))
    before = x2.carrier_relation_count()
    x2.add_carrier_relation(first, next(c for c in rest if c not in related))
    assert x2.carrier_relation_count() == before + 1


class TestSnapshotFingerprint:
    @pytest.fixture(scope="class")
    def pinned(self):
        return four_markets_workload(scale=0.005)

    @pytest.fixture()
    def private_copy(self, pinned):
        """A mutable copy: the generator caches its datasets, so the
        pinned one is shared and must not change."""
        return snapshot_from_dict(dataset_to_dict(pinned.network, pinned.store))

    def test_digest_is_pinned(self, pinned):
        digest = snapshot_fingerprint(pinned.network, pinned.store)
        assert digest == PINNED_FINGERPRINT

    def test_export_bytes_are_pinned(self, pinned, tmp_path):
        text = json.dumps(dataset_to_dict(pinned.network, pinned.store))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == PINNED_EXPORT_SHA256
        path = tmp_path / "snapshot.json"
        export_dataset_json(pinned, str(path))
        assert path.read_text() == text

    def test_round_trip_keeps_the_digest(self, private_copy):
        digest = snapshot_fingerprint(private_copy.network, private_copy.store)
        assert digest == PINNED_FINGERPRINT

    @pytest.mark.parametrize(
        "mutate",
        [_change_singular, _change_pairwise, _change_attribute, _add_x2_edge],
        ids=["singular-value", "pairwise-value", "attribute", "x2-edge"],
    )
    def test_one_change_moves_the_digest(self, private_copy, mutate):
        mutate(private_copy)
        digest = snapshot_fingerprint(private_copy.network, private_copy.store)
        assert digest != PINNED_FINGERPRINT

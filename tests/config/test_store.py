import pytest

from repro.config.catalog import build_default_catalog
from repro.config.store import ConfigurationStore, PairKey
from repro.exceptions import ConfigurationError
from repro.netmodel.identifiers import CarrierId, ENodeBId, MarketId


def cid(enb=0, face=0, slot=0):
    return CarrierId(ENodeBId(MarketId(0), enb), face, slot)


@pytest.fixture()
def fresh_store(catalog):
    return ConfigurationStore(catalog)


class TestPairKey:
    def test_distinct_required(self):
        with pytest.raises(ValueError):
            PairKey(cid(0), cid(0))

    def test_reversed(self):
        pair = PairKey(cid(0), cid(1))
        assert pair.reversed() == PairKey(cid(1), cid(0))

    def test_orderable_and_hashable(self):
        a = PairKey(cid(0), cid(1))
        b = PairKey(cid(1), cid(0))
        assert sorted([b, a])[0] == a
        assert len({a, b, PairKey(cid(0), cid(1))}) == 2


class TestSingularValues:
    def test_set_get_roundtrip(self, fresh_store):
        fresh_store.set_singular(cid(), "pMax", 12.6)
        assert fresh_store.get_singular(cid(), "pMax") == 12.6

    def test_unset_returns_none(self, fresh_store):
        assert fresh_store.get_singular(cid(), "pMax") is None

    def test_illegal_value_rejected(self, fresh_store):
        with pytest.raises(ConfigurationError):
            fresh_store.set_singular(cid(), "pMax", 1000)

    def test_pairwise_name_rejected(self, fresh_store):
        with pytest.raises(ConfigurationError):
            fresh_store.set_singular(cid(), "hysA3Offset", 1.0)

    def test_overwrite(self, fresh_store):
        fresh_store.set_singular(cid(), "sFreqPrio", 1)
        fresh_store.set_singular(cid(), "sFreqPrio", 2)
        assert fresh_store.get_singular(cid(), "sFreqPrio") == 2

    def test_carrier_config_is_copy(self, fresh_store):
        fresh_store.set_singular(cid(), "sFreqPrio", 1)
        config = fresh_store.carrier_config(cid())
        config["sFreqPrio"] = 999
        assert fresh_store.get_singular(cid(), "sFreqPrio") == 1

    def test_singular_values_by_name(self, fresh_store):
        fresh_store.set_singular(cid(0), "sFreqPrio", 1)
        fresh_store.set_singular(cid(1), "sFreqPrio", 2)
        fresh_store.set_singular(cid(1), "pMax", 0)
        values = fresh_store.singular_values("sFreqPrio")
        assert values == {cid(0): 1, cid(1): 2}


class TestPairwiseValues:
    def test_set_get_roundtrip(self, fresh_store):
        pair = PairKey(cid(0), cid(1))
        fresh_store.set_pairwise(pair, "hysA3Offset", 2.5)
        assert fresh_store.get_pairwise(pair, "hysA3Offset") == 2.5

    def test_direction_matters(self, fresh_store):
        pair = PairKey(cid(0), cid(1))
        fresh_store.set_pairwise(pair, "hysA3Offset", 2.5)
        assert fresh_store.get_pairwise(pair.reversed(), "hysA3Offset") is None

    def test_singular_name_rejected(self, fresh_store):
        with pytest.raises(ConfigurationError):
            fresh_store.set_pairwise(PairKey(cid(0), cid(1)), "pMax", 12.6)


class TestRemovalAndCounts:
    def test_total_value_count(self, fresh_store):
        fresh_store.set_singular(cid(0), "pMax", 0)
        fresh_store.set_singular(cid(0), "sFreqPrio", 1)
        fresh_store.set_pairwise(PairKey(cid(0), cid(1)), "hysA3Offset", 1.0)
        assert fresh_store.total_value_count() == 3
        assert fresh_store.value_counts() == (2, 1)


class TestGeneratedStoreInvariants:
    """Invariants the generator must maintain on the tiny dataset."""

    def test_all_values_legal(self, dataset):
        store = dataset.store
        for spec in dataset.catalog.singular_parameters()[:10]:
            for value in store.singular_values(spec.name).values():
                assert spec.contains(value), (spec.name, value)

    def test_pairwise_values_legal(self, dataset):
        store = dataset.store
        for spec in dataset.catalog.pairwise_parameters()[:5]:
            for value in store.pairwise_values(spec.name).values():
                assert spec.contains(value), (spec.name, value)

    def test_missing_rate_reasonable(self, dataset):
        carriers = dataset.network.carrier_count()
        values = len(dataset.store.singular_values("pMax"))
        # ~1.7% of singular cells are missing by design.
        assert values <= carriers
        assert values >= 0.9 * carriers

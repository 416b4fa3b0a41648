import copy
import dataclasses
import pickle

import pytest

from repro.netmodel.identifiers import CarrierId, ENodeBId, MarketId


class TestMarketId:
    def test_str(self):
        assert str(MarketId(3)) == "market-03"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MarketId(-1)

    def test_ordering(self):
        assert MarketId(1) < MarketId(2)

    def test_hashable(self):
        assert len({MarketId(0), MarketId(0), MarketId(1)}) == 2


class TestENodeBId:
    def test_str_contains_market(self):
        e = ENodeBId(MarketId(2), 7)
        assert "market-02" in str(e)
        assert "enb-00007" in str(e)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            ENodeBId(MarketId(0), -1)

    def test_market_accessor_via_carrier(self):
        e = ENodeBId(MarketId(5), 0)
        c = CarrierId(e, 1, 0)
        assert c.market == MarketId(5)


class TestCarrierId:
    def test_face_bounds(self):
        e = ENodeBId(MarketId(0), 0)
        CarrierId(e, 0, 0)
        CarrierId(e, 2, 5)
        with pytest.raises(ValueError):
            CarrierId(e, 3, 0)
        with pytest.raises(ValueError):
            CarrierId(e, -1, 0)

    def test_slot_non_negative(self):
        e = ENodeBId(MarketId(0), 0)
        with pytest.raises(ValueError):
            CarrierId(e, 0, -1)

    def test_str_format(self):
        c = CarrierId(ENodeBId(MarketId(1), 22), 2, 3)
        assert str(c) == "market-01/enb-00022/f2/c3"

    def test_ordering_is_total(self):
        e = ENodeBId(MarketId(0), 0)
        carriers = [CarrierId(e, 2, 0), CarrierId(e, 0, 1), CarrierId(e, 0, 0)]
        ordered = sorted(carriers)
        assert ordered[0] == CarrierId(e, 0, 0)
        assert ordered[-1] == CarrierId(e, 2, 0)

    def test_enodeb_accessor(self):
        e = ENodeBId(MarketId(0), 9)
        assert CarrierId(e, 1, 1).enodeb == e


def _ids():
    return [
        CarrierId(ENodeBId(MarketId(m), e), f, s)
        for m in range(2)
        for e in range(40)
        for f in range(3)
        for s in range(4)
    ]


def _field_hash(identifier):
    """The generated dataclass hash: the hash of the field tuple."""
    if isinstance(identifier, MarketId):
        return hash((identifier.index,))
    if isinstance(identifier, ENodeBId):
        return hash((identifier.market, identifier.index))
    return hash((identifier.enodeb, identifier.face, identifier.slot))


class TestMemoizedHash:
    def test_hash_is_the_field_tuple_hash(self):
        for carrier in _ids()[::37]:
            for identifier in (carrier, carrier.enodeb, carrier.market):
                assert hash(identifier) == _field_hash(identifier)
                # Asked again, the remembered value is the same one.
                assert hash(identifier) == _field_hash(identifier)

    @pytest.mark.parametrize(
        "clone",
        [
            lambda c: pickle.loads(pickle.dumps(c)),
            copy.deepcopy,
            lambda c: dataclasses.replace(c, slot=c.slot + 1),
        ],
        ids=["pickle", "deepcopy", "replace"],
    )
    def test_hash_survives_copies(self, clone):
        carrier = CarrierId(ENodeBId(MarketId(1), 22), 2, 3)
        hash(carrier)
        copied = clone(carrier)
        assert hash(copied) == _field_hash(copied)
        assert hash(copied.enodeb) == _field_hash(copied.enodeb)
        if copied.slot == carrier.slot:
            assert copied == carrier
            assert hash(copied) == hash(carrier)

    def test_pickle_carries_no_memo(self):
        ids = _ids()
        cold = pickle.dumps(ids)
        for identifier in ids:
            hash(identifier)
        assert pickle.dumps(ids) == cold
        # 960 ids took 47,153 bytes when they pickled as generated
        # dataclasses (a state dict per object); constructor arguments
        # must never make the list larger.
        assert len(cold) <= 47_153

    def test_sets_keep_their_iteration_order(self):
        class Generated:
            """An id hashed afresh on every call, as the generated
            dataclass hash does."""

            def __init__(self, carrier):
                self.carrier = carrier

            def __hash__(self):
                return _field_hash(self.carrier)

        ids = _ids()
        assert [c for c in set(ids)] == [
            g.carrier for g in {Generated(c) for c in ids}
        ]

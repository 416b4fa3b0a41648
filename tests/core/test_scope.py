"""Voting scopes: the engine's global and local electorates.

Section 3.3: the *local learner* lets only the ``hops``-hop X2
neighborhood of the target carrier vote
(:meth:`~repro.core.auric.AuricEngine.neighborhood_of`); the *global
learner* lets the whole network vote.
"""

import pytest

from repro.core import AuricConfig, AuricEngine, RecommendRequest


def _engine(dataset, hops=1):
    return AuricEngine(dataset.network, dataset.store, AuricConfig(hops=hops))


class TestGlobalScope:
    def test_everyone_votes(self, dataset, some_carrier_id):
        """A global request resolves to no voters: everyone votes."""
        _, _, voters, _ = _engine(dataset).resolve_request(
            RecommendRequest(carrier_id=some_carrier_id, local=False)
        )
        assert len(voters) == 0
        assert voters.key() is None

    def test_name(self, engine, some_carrier_id):
        rec = engine.recommend_for_carrier("pMax", some_carrier_id, local=False)
        assert rec.scope.startswith("global")


class TestLocalScope:
    def test_matches_x2_neighborhood(self, dataset, network, some_carrier_id):
        voters = _engine(dataset).neighborhood_of(some_carrier_id)
        assert voters == network.x2.carrier_neighborhood(some_carrier_id, hops=1)

    def test_two_hops_superset(self, dataset, some_carrier_id):
        one = _engine(dataset, hops=1).neighborhood_of(some_carrier_id)
        two = _engine(dataset, hops=2).neighborhood_of(some_carrier_id)
        assert one <= two

    def test_invalid_hops(self, dataset, some_carrier_id):
        with pytest.raises(ValueError):
            _engine(dataset, hops=0).neighborhood_of(some_carrier_id)

    def test_self_never_votes(self, dataset, some_carrier_id):
        voters = _engine(dataset).neighborhood_of(some_carrier_id)
        assert some_carrier_id not in voters

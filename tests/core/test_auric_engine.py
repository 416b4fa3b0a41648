from collections import Counter

import pytest

from repro.config.store import PairKey
from repro.core import AuricConfig, AuricEngine
from repro.exceptions import RecommendationError, UnknownParameterError

from tests.conftest import ENGINE_PARAMETERS


class TestFitting:
    def test_fitted_parameters(self, engine):
        assert engine.fitted_parameters() == sorted(ENGINE_PARAMETERS)

    def test_dependent_attributes_nonempty(self, engine):
        names = engine.dependent_attribute_names("pMax")
        assert names  # pMax depends on something
        assert all(isinstance(n, str) for n in names)

    def test_pairwise_dependent_names_are_prefixed(self, engine):
        names = engine.dependent_attribute_names("hysA3Offset")
        assert all(n.startswith(("own.", "nbr.")) for n in names)

    def test_unfitted_parameter_raises(self, engine, some_carrier_id):
        with pytest.raises(UnknownParameterError):
            engine.recommend_for_carrier("qHyst", some_carrier_id)

    def test_cell_count_positive(self, engine):
        assert engine.cell_count("pMax") >= 1

    def test_fit_all_range_parameters_possible(self, dataset):
        engine = AuricEngine(dataset.network, dataset.store)
        engine.fit(["sFreqPrio", "qrxlevmin"])
        assert "sFreqPrio" in engine.fitted_parameters()


class TestSingularRecommendation:
    def test_recommendation_fields(self, engine, some_carrier_id):
        rec = engine.recommend_for_carrier("pMax", some_carrier_id)
        assert rec.parameter == "pMax"
        assert 0.0 <= rec.support <= 1.0
        assert rec.matched >= 0
        assert rec.scope in ("local", "global", "global-relaxed", "global-fallback")

    def test_leave_one_out_excludes_self(self, engine, dataset):
        # Find a carrier that is the sole member of its cell: with LOO
        # its own value must not vote.
        targets = engine._model("pMax").encoded.targets()
        sizes = Counter(cell for cell, _ in targets.values())
        singletons = [
            key for key, (cell, _) in targets.items() if sizes[cell] == 1
        ]
        if not singletons:
            pytest.skip("no singleton cells in tiny dataset")
        carrier_id = singletons[0]
        rec = engine.recommend_for_carrier(
            "pMax", carrier_id, local=False, leave_one_out=True
        )
        assert rec.scope in ("global-relaxed", "global-fallback")

    def test_without_loo_self_votes(self, engine, dataset):
        values = dataset.store.singular_values("pMax")
        carrier_id = sorted(values)[0]
        rec = engine.recommend_for_carrier(
            "pMax", carrier_id, local=False, leave_one_out=False
        )
        assert rec.matched >= 1

    def test_pairwise_parameter_via_carrier_api_rejected(
        self, engine, some_carrier_id
    ):
        with pytest.raises(RecommendationError):
            engine.recommend_for_carrier("hysA3Offset", some_carrier_id)

    def test_global_accuracy_reasonable(self, engine, dataset):
        values = dataset.store.singular_values("pMax")
        sample = sorted(values)[:120]
        hits = sum(
            1
            for cid in sample
            if engine.recommend_for_carrier("pMax", cid, local=False).value
            == values[cid]
        )
        assert hits / len(sample) > 0.7


class TestPairwiseRecommendation:
    def test_recommend_for_pair(self, engine, dataset):
        values = dataset.store.pairwise_values("hysA3Offset")
        pair = sorted(values)[0]
        rec = engine.recommend_for_pair("hysA3Offset", pair)
        assert rec.parameter == "hysA3Offset"
        assert rec.matched >= 0

    def test_singular_parameter_via_pair_api_rejected(self, engine, dataset):
        values = dataset.store.pairwise_values("hysA3Offset")
        pair = sorted(values)[0]
        with pytest.raises(RecommendationError):
            engine.recommend_for_pair("pMax", pair)


class TestLocalVoting:
    def test_local_vote_scope_label(self, engine, dataset):
        values = dataset.store.singular_values("pMax")
        # Pick a carrier with a decent neighborhood.
        for cid in sorted(values):
            if len(engine.neighborhood_of(cid)) >= 5:
                rec = engine.recommend_for_carrier("pMax", cid, local=True)
                assert rec.scope in ("local", "global", "global-relaxed", "global-fallback")
                return
        pytest.skip("no carrier with big enough neighborhood")

    def test_min_local_votes_fallback(self, dataset):
        config = AuricConfig(min_local_votes=10**6)  # force global fallback
        engine = AuricEngine(dataset.network, dataset.store, config).fit(["pMax"])
        values = dataset.store.singular_values("pMax")
        rec = engine.recommend_for_carrier("pMax", sorted(values)[0], local=True)
        assert rec.scope in ("global", "global-relaxed", "global-fallback")

    def test_neighborhood_respects_hops(self, dataset, some_carrier_id):
        one_hop = AuricEngine(
            dataset.network, dataset.store, AuricConfig(hops=1)
        ).neighborhood_of(some_carrier_id)
        two_hop = AuricEngine(
            dataset.network, dataset.store, AuricConfig(hops=2)
        ).neighborhood_of(some_carrier_id)
        assert one_hop <= two_hop


class TestConfigValidation:
    def test_config_defaults_match_paper(self):
        config = AuricConfig()
        assert config.support_threshold == 0.75
        assert config.p_value == 0.01
        assert config.hops == 1

    def test_engine_uses_store_catalog(self, engine, dataset):
        assert engine.catalog is dataset.store.catalog

    @pytest.mark.parametrize("votes", [0, -1])
    def test_min_local_votes_below_one_rejected(self, votes):
        with pytest.raises(ValueError, match="min_local_votes"):
            AuricConfig(min_local_votes=votes)

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
    def test_out_of_range_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            AuricConfig(**{field: value})

    def test_min_local_votes_of_one_allowed(self, dataset, some_carrier_id):
        engine = AuricEngine(
            dataset.network, dataset.store, AuricConfig(min_local_votes=1)
        ).fit(["pMax"])
        rec = engine.recommend_for_carrier("pMax", some_carrier_id, local=True)
        assert rec.matched >= 1


class TestSelectionStrategyConfig:
    def test_marginal_selection_mode(self, dataset):
        engine = AuricEngine(
            dataset.network, dataset.store, AuricConfig(selection="marginal")
        ).fit(["pMax"])
        conditional = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        # Marginal selection keeps at least as many attributes.
        assert len(engine.dependent_attribute_names("pMax")) >= len(
            conditional.dependent_attribute_names("pMax")
        )

    def test_invalid_selection_rejected(self, dataset):
        with pytest.raises(ValueError):
            AuricEngine(
                dataset.network,
                dataset.store,
                AuricConfig(selection="bogus"),
            ).fit(["pMax"])


class TestFitErrors:
    def test_capacity_error_fails_the_fit(self, dataset, monkeypatch):
        """Vocabularies too large to pack are a fit error, not a silent
        switch to another implementation."""
        from repro.learners import collaborative_filtering as cf

        monkeypatch.setattr(cf, "PACK_CAPACITY_LIMIT", 1)
        engine = AuricEngine(dataset.network, dataset.store)
        with pytest.raises(cf.ColumnarCapacityError):
            engine.fit(["pMax"])
        assert "pMax" not in engine.fitted_parameters()


class TestZeroWeightVoters:
    def test_exclusion_of_a_zero_weight_voter(self, dataset):
        """A label whose every voter weighs 0 keeps a 0.0 entry.  Its
        voter's own exclusion leaves that entry in the exact cell but
        drops it from the global fallback distribution."""
        values = dataset.store.singular_values("pMax")
        counts = {}
        for value in values.values():
            counts[value] = counts.get(value, 0) + 1
        rare = min(counts, key=counts.get)
        weights = {cid: 0.0 for cid, value in values.items() if value == rare}
        engine = AuricEngine(dataset.network, dataset.store).fit(
            ["pMax"], vote_weights=weights
        )
        dependent = engine._model("pMax").dependent_columns
        voter = next(iter(weights))
        row = engine.carrier_row(voter)
        unseen = tuple(
            "unseen" if i in dependent else v for i, v in enumerate(row)
        )
        kept = engine.recommend_global("pMax", unseen, capture=True)
        dropped = engine.recommend_global(
            "pMax", unseen, exclude=voter, capture=True
        )
        assert kept.scope == dropped.scope == "global-fallback"
        assert (rare, 0.0) in kept.votes
        assert rare not in [value for value, _ in dropped.votes]
        exact = engine.exact_cell_vote("pMax", row, exclude=voter)
        assert (rare, 0.0) in exact.votes

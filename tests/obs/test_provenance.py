"""Tests for recommendation provenance (the ``explain`` records)."""

import json

import pytest

from repro.config.rulebook import RuleBook
from repro.core.auric import AuricConfig, AuricEngine
from repro.core.recommendation import RecommendRequest
from repro.learners.chi_square import marginal_tests
from repro.obs.provenance import ResultExplanation
from repro.serve.service import RecommendationService

PARAMETERS = ("pMax", "inactivityTimer")


@pytest.fixture(scope="module")
def engine(dataset):
    config = AuricConfig(selection="marginal")
    return AuricEngine(dataset.network, dataset.store, config).fit(
        list(PARAMETERS)
    )


@pytest.fixture(scope="module")
def explained(engine, dataset):
    """Leave-one-out explained results over a small carrier sample."""
    results = []
    for carrier_id in sorted(dataset.store.carriers())[:25]:
        request = RecommendRequest(
            carrier_id=carrier_id,
            parameters=PARAMETERS,
            leave_one_out=True,
            explain=True,
        )
        results.append(engine.handle(request))
    return results


class TestEngineExplanations:
    def test_every_explained_result_carries_provenance(self, explained):
        for result in explained:
            assert result.explain is not None
            assert set(result.explain.parameters) == set(
                result.recommendation.recommendations
            )

    def test_accepted_recommendations_meet_support_threshold(
        self, engine, explained
    ):
        threshold = engine.config.support_threshold
        accepted = 0
        for result in explained:
            for name, rec in result.recommendation.recommendations.items():
                explanation = result.explain.parameters[name]
                assert explanation.support == pytest.approx(rec.support)
                assert explanation.matched == pytest.approx(rec.matched)
                if rec.confident:
                    accepted += 1
                    assert explanation.support >= threshold
        assert accepted > 0, "sample produced no accepted recommendations"

    def test_votes_sum_to_matched_and_winner_leads(self, explained):
        for result in explained:
            for name, explanation in result.explain.parameters.items():
                if not explanation.votes:
                    continue
                total = sum(vote.weight for vote in explanation.votes)
                assert total == pytest.approx(explanation.matched)
                winner = explanation.votes[0]
                assert winner.value == explanation.value
                assert winner.share == pytest.approx(explanation.support)
                assert all(
                    winner.weight >= vote.weight
                    for vote in explanation.votes
                )

    def test_dependencies_match_marginal_chi_square(self, engine):
        """The explain record's attributes are exactly the marginally
        dependent columns that clear the effect-size floor."""
        config = engine.config
        for name in PARAMETERS:
            model = engine._models[name]
            spec = engine.catalog.spec(name)
            values = engine.store.singular_values(name)
            keys = sorted(values)
            rows = [engine.carrier_row(key) for key in keys]
            labels = [values[key] for key in keys]
            names = engine.attribute_names(spec)
            results = marginal_tests(
                list(zip(*rows)), labels, config.p_value
            )
            expected = {
                names[column]
                for column, outcome in enumerate(results)
                if outcome.dependent
                and outcome.cramers_v >= config.min_effect_size
            }
            assert set(model.dependent_names) == expected

            by_column = dict(zip(names, results))
            for dependence in model.dependent_stats:
                outcome = by_column[dependence.name]
                assert dependence.statistic == pytest.approx(
                    outcome.statistic
                )
                assert dependence.cramers_v == pytest.approx(
                    outcome.cramers_v
                )
                # The achieved p-value must clear the configured alpha
                # (the column was selected as dependent).
                assert dependence.p_value < dependence.significance
                assert dependence.significance == config.p_value

    def test_explanation_json_round_trips(self, explained):
        explanation = explained[0].explain
        payload = json.loads(json.dumps(explanation.to_dict()))
        rebuilt = ResultExplanation.from_dict(payload)
        assert rebuilt.to_dict() == explanation.to_dict()

    def test_human_rendering_names_the_evidence(self, explained):
        rendered = str(explained[0].explain)
        assert "explanation for" in rendered
        assert "depends on" in rendered
        assert "votes:" in rendered


class TestServiceDisposition:
    @pytest.fixture(scope="class")
    def service(self, engine, dataset):
        return RecommendationService(
            engine, rulebook=RuleBook(dataset.store.catalog)
        )

    def test_cache_disposition_flips_to_hit(self, service, dataset):
        carrier_id = sorted(dataset.store.carriers())[0]
        request = RecommendRequest(
            attributes=dataset.network.carrier(carrier_id).attributes,
            enodeb_id=carrier_id.enodeb,
            parameters=PARAMETERS,
            explain=True,
        )
        first = service.handle(request).explain
        second = service.handle(request).explain
        assert {e.cache for e in first.parameters.values()} == {"miss"}
        assert {e.cache for e in second.parameters.values()} == {"hit"}
        # The cached answer explains identically to the cold one.
        for name, explanation in first.parameters.items():
            again = second.parameters[name]
            assert again.value == explanation.value
            assert again.votes == explanation.votes

    def test_leave_one_out_bypasses_the_cache(self, service, dataset):
        """A leave-one-out vote is computed directly: no cache entry, no
        cache lookup counted, and no cache disposition to explain."""
        carrier_id = sorted(dataset.store.carriers())[2]
        request = RecommendRequest(
            carrier_id=carrier_id,
            parameters=PARAMETERS,
            leave_one_out=True,
            explain=True,
        )
        metrics = service.metrics
        before = (
            service.cache_len(), metrics.cache_hits, metrics.cache_misses
        )
        requests, votes = metrics.requests, metrics.votes
        for _ in range(2):
            explanation = service.handle(request).explain
            assert {e.cache for e in explanation.parameters.values()} == {
                None
            }
        assert (
            service.cache_len(), metrics.cache_hits, metrics.cache_misses
        ) == before
        assert metrics.requests == requests + 2
        assert metrics.votes > votes

    def test_unexplained_requests_skip_vote_capture(self, service, dataset):
        carrier_id = sorted(dataset.store.carriers())[1]
        request = RecommendRequest(
            carrier_id=carrier_id,
            parameters=PARAMETERS,
            leave_one_out=True,
        )
        result = service.handle(request)
        assert result.explain is None
        for rec in result.recommendation.recommendations.values():
            assert rec.votes == ()

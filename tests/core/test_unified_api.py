"""The unified RecommendRequest/RecommendResult API across all layers.

One request vocabulary, three entry points: the raw engine, the launch
pipeline and the serving layer all answer ``handle(RecommendRequest)``
with a ``RecommendResult``; the old per-layer signatures are gone.
"""

import pytest

from repro.config.rulebook import RuleBook
from repro.core.pipeline import NewCarrierRequest, RecommendationPipeline
from repro.core.recommendation import RecommendRequest, RecommendResult
from repro.exceptions import RecommendationError
from repro.serve.service import RecommendationService


@pytest.fixture()
def pipeline(engine):
    return RecommendationPipeline(engine, RuleBook(engine.catalog))


@pytest.fixture()
def service(engine):
    return RecommendationService(engine, rulebook=RuleBook(engine.catalog))


@pytest.fixture()
def new_request(some_carrier):
    return NewCarrierRequest(
        attributes=some_carrier.attributes,
        enodeb_id=some_carrier.carrier_id.enodeb,
    )


class TestRequestValidation:
    def test_needs_exactly_one_target(self, some_carrier, some_carrier_id):
        with pytest.raises(ValueError):
            RecommendRequest()
        with pytest.raises(ValueError):
            RecommendRequest(
                attributes=some_carrier.attributes, carrier_id=some_carrier_id
            )

    def test_leave_one_out_needs_existing_carrier(self, some_carrier):
        with pytest.raises(ValueError):
            RecommendRequest(
                attributes=some_carrier.attributes, leave_one_out=True
            )

    def test_labels(self, some_carrier, some_carrier_id):
        assert str(some_carrier_id) in RecommendRequest(
            carrier_id=some_carrier_id
        ).label()
        assert "new-carrier" in RecommendRequest(
            attributes=some_carrier.attributes
        ).label()


class TestEngineHandle:
    def test_existing_carrier_round_trip(self, engine, some_carrier_id):
        result = engine.handle(
            RecommendRequest(
                carrier_id=some_carrier_id,
                parameters=("pMax",),
                leave_one_out=True,
            )
        )
        assert isinstance(result, RecommendResult)
        assert result.source == "engine"
        assert result.exclude == some_carrier_id
        assert result.parameters == ("pMax",)
        direct = engine.recommend_for_carrier(
            "pMax", some_carrier_id, local=True, leave_one_out=True
        )
        assert result.recommendation.recommendations["pMax"] == direct

    def test_new_carrier_defaults_to_fitted_singulars(self, engine, some_carrier):
        result = engine.handle(
            RecommendRequest(attributes=some_carrier.attributes)
        )
        assert set(result.parameters) == {"pMax", "inactivityTimer"}

    def test_global_scope_when_local_disabled(self, engine, some_carrier_id):
        result = engine.handle(
            RecommendRequest(
                carrier_id=some_carrier_id, parameters=("pMax",), local=False
            )
        )
        assert result.recommendation.recommendations["pMax"].scope.startswith(
            "global"
        )


class TestPipelineHandle:
    def test_result_provenance(self, pipeline, new_request):
        result = pipeline.handle(RecommendRequest.from_new_carrier(new_request))
        assert result.source == "pipeline"
        assert result.duration_s >= 0.0
        assert len(result) > 0

    def test_retired_shim_raises(self, pipeline, new_request):
        with pytest.raises(AttributeError, match="recommend"):
            pipeline.recommend(new_request, parameters=["pMax"])


class TestServiceHandle:
    def test_result_provenance(self, service, new_request):
        result = service.handle(RecommendRequest.from_new_carrier(new_request))
        assert result.source == "service"
        assert result.scope_counts()

    def test_retired_shim_raises(self, service, new_request):
        with pytest.raises(AttributeError, match="recommend"):
            service.recommend(new_request, parameters=["pMax"])

    def test_retired_batch_shim_raises(self, service, new_request):
        with pytest.raises(AttributeError, match="recommend_batch"):
            service.recommend_batch([new_request])

    def test_leave_one_out_matches_engine(
        self, service, engine, some_carrier_id
    ):
        request = RecommendRequest(
            carrier_id=some_carrier_id,
            parameters=("pMax",),
            leave_one_out=True,
        )
        served = service.handle(request)
        assert served.exclude == some_carrier_id
        direct = engine.recommend_for_carrier(
            "pMax", some_carrier_id, local=True, leave_one_out=True
        )
        assert served.recommendation.recommendations["pMax"] == direct

    def test_all_layers_agree_on_global_vote(
        self, service, pipeline, engine, some_carrier
    ):
        request = RecommendRequest(
            attributes=some_carrier.attributes,
            parameters=("pMax",),
            local=False,
        )
        values = {
            layer.handle(request).recommendation.recommendations["pMax"].value
            for layer in (engine, pipeline, service)
        }
        assert len(values) == 1


class TestOneLoop:
    """Every layer runs the one request loop, so without a rule-book they
    all answer the same requests and reject the same ones."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda engine: engine,
            lambda engine: RecommendationPipeline(engine, rulebook=None),
            lambda engine: RecommendationService(engine, rulebook=None),
        ],
        ids=["engine", "pipeline", "service"],
    )
    def test_rulebook_less_layer_answers_fitted_singulars(
        self, build, engine, some_carrier
    ):
        layer = build(engine)
        with pytest.raises(RecommendationError, match="pair-wise"):
            layer.handle(RecommendRequest(
                attributes=some_carrier.attributes, parameters=("hysA3Offset",)
            ))
        with pytest.raises(RecommendationError, match="no rule-book"):
            layer.handle(RecommendRequest(
                attributes=some_carrier.attributes, parameters=("qHyst",)
            ))
        result = layer.handle(RecommendRequest(
            attributes=some_carrier.attributes,
            enodeb_id=some_carrier.carrier_id.enodeb,
        ))
        assert result.parameters == ("inactivityTimer", "pMax")
        assert set(result.scope_counts()) <= {
            "local", "local-cluster", "global", "global-relaxed",
            "global-fallback",
        }

"""Auric core: the recommendation engine of the paper.

:class:`~repro.core.auric.AuricEngine` learns, per configuration
parameter, a dependency model from existing carriers and recommends
values for new carriers — globally or scoped to the 1-hop X2
neighborhood (the *local learner* of section 3.3).
"""

from repro.core.auric import AuricEngine, AuricConfig
from repro.core.pipeline import NewCarrierRequest, RecommendationPipeline
from repro.core.recommendation import (
    CarrierRecommendation,
    ParameterRecommendation,
    RecommendRequest,
    RecommendResult,
)

__all__ = [
    "AuricEngine",
    "AuricConfig",
    "NewCarrierRequest",
    "RecommendationPipeline",
    "CarrierRecommendation",
    "ParameterRecommendation",
    "RecommendRequest",
    "RecommendResult",
]

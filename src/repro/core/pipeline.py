"""End-to-end recommendation pipeline for genuinely new carriers.

A *new* carrier is not yet in the network snapshot: it has attributes
(known at activation time, section 3) and a launch location — from which
its future X2 neighborhood can be predicted (co-sited carriers plus
carriers on nearby eNodeBs).  The pipeline runs the Auric engine for
every range parameter (local vote first, global fallback) and fills
enumeration parameters and cold-start cases from the operational
rule-book, exactly the deployment behaviour described in sections 5-6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config.rulebook import RuleBook
from repro.core.auric import AuricEngine
from repro.core.recommendation import (
    CarrierRecommendation,
    ParameterRecommendation,
    RecommendRequest,
    RecommendResult,
)
from repro.exceptions import RecommendationError
from repro.netmodel.attributes import CarrierAttributes
from repro.netmodel.identifiers import CarrierId, ENodeBId
from repro.obs import tracing
from repro.obs.provenance import ResultExplanation


@dataclass(frozen=True)
class NewCarrierRequest:
    """Everything known about a carrier at launch time."""

    attributes: CarrierAttributes
    #: The eNodeB the carrier is installed on (its co-sited and X2
    #: neighbor carriers become the local voters).
    enodeb_id: Optional[ENodeBId] = None
    #: Explicit neighbor carriers, if ANR data is already available.
    neighbor_carriers: Tuple[CarrierId, ...] = ()

    def label(self) -> str:
        if self.enodeb_id is not None:
            return f"new-carrier@{self.enodeb_id}"
        return "new-carrier"


def resolve_neighborhood(
    engine: AuricEngine, request: NewCarrierRequest
) -> Set[CarrierId]:
    """The local voters for a new-carrier request: its explicit ANR
    neighbors plus, when the eNodeB is known, the co-sited carriers and
    their X2 neighborhoods (shared with :mod:`repro.serve.service`)."""
    return engine.request_neighborhood(request)


def default_parameter_names(
    catalog, rulebook: Optional[RuleBook], include_enumerations: bool
) -> List[str]:
    """The parameter set a rule-book-backed layer serves by default:
    every singular range parameter, plus the singular enumerations when
    a rule-book can answer them (shared by pipeline and service)."""
    names = [s.name for s in catalog.singular_parameters()]
    if include_enumerations and rulebook is not None:
        names += [
            s.name
            for s in catalog.enumeration_parameters()
            if s.kind.value == "singular"
        ]
    return names


class RecommendationPipeline:
    """Auric engine + rule-book fallback, packaged for launch workflows."""

    def __init__(self, engine: AuricEngine, rulebook: Optional[RuleBook] = None):
        self.engine = engine
        self.rulebook = rulebook

    def _neighborhood(self, request: NewCarrierRequest) -> Set[CarrierId]:
        return resolve_neighborhood(self.engine, request)

    def handle(self, request: RecommendRequest) -> RecommendResult:
        """Serve one unified request: engine vote with rule-book fallback."""
        started = time.perf_counter()
        with tracing.span("pipeline.handle", target=request.label()) as sp:
            catalog = self.engine.catalog
            if request.parameters is not None:
                names = list(request.parameters)
            else:
                names = default_parameter_names(
                    catalog, self.rulebook, request.include_enumerations
                )
            sp.set("parameters", len(names))
            attributes, row, neighborhood, exclude = self.engine.resolve_request(
                request
            )
            result = CarrierRecommendation(target=request.label())
            fallback_reasons: Dict[str, str] = {}
            previous_capture = self.engine._capture_votes
            self.engine._capture_votes = request.explain or previous_capture
            try:
                for name in names:
                    spec = catalog.spec(name)
                    if spec.is_range and name in self.engine.fitted_parameters():
                        try:
                            if neighborhood:
                                rec = self.engine.recommend_local(
                                    name, row, neighborhood, exclude=exclude
                                )
                            else:
                                rec = self.engine.recommend_global(
                                    name, row, exclude=exclude
                                )
                            result.add(rec)
                            continue
                        except RecommendationError as error:
                            # fall through to the rule-book
                            fallback_reasons[name] = f"vote failed: {error}"
                    elif spec.is_range:
                        fallback_reasons[name] = "parameter not fitted (cold start)"
                    else:
                        fallback_reasons[name] = "enumeration parameter (rule-book)"
                    if self.rulebook is None:
                        raise RecommendationError(
                            f"cannot recommend {name}: not fitted and no "
                            f"rule-book fallback"
                        )
                    result.add(
                        ParameterRecommendation(
                            parameter=name,
                            value=self.rulebook.value_for(name, attributes),
                            support=1.0,
                            matched=0.0,
                            confident=False,
                            scope="rulebook",
                        )
                    )
            finally:
                self.engine._capture_votes = previous_capture
            explanation = None
            if request.explain:
                explanation = ResultExplanation(
                    target=request.label(),
                    source="pipeline",
                    lineage=self.engine.lineage,
                )
                context = tracing.current_context()
                if context is not None:
                    explanation.trace_id = context[0]
                for name, rec in result.recommendations.items():
                    explanation.parameters[name] = self.engine.explain_parameter(
                        rec,
                        row,
                        neighborhood=neighborhood if request.local else None,
                        fallback_reason=fallback_reasons.get(name),
                    )
            return RecommendResult(
                request=request,
                recommendation=result,
                source="pipeline",
                duration_s=time.perf_counter() - started,
                exclude=exclude,
                explain=explanation,
            )

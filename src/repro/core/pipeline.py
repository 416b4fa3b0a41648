"""The recommendation request loop, and the launch pipeline that owns it.

A *new* carrier is not yet in the network snapshot: it has attributes
(known at activation time, section 3) and a launch location — from which
its future X2 neighborhood can be predicted (co-sited carriers plus
carriers on nearby eNodeBs).  The pipeline runs the Auric engine for
every range parameter (local vote first, global fallback) and fills
enumeration parameters and cold-start cases from the operational
rule-book, exactly the deployment behaviour described in sections 5-6.

:meth:`RecommendationPipeline._serve` is the one request loop: request →
parameter names → resolve → per-parameter vote or rule-book fallback →
explanation → :class:`~repro.core.recommendation.RecommendResult`.
Every layer answers through it:

* :class:`RecommendationPipeline` — the loop with a rule-book;
* :meth:`AuricEngine.handle <repro.core.auric.AuricEngine.handle>` — the
  loop with no rule-book (:class:`EngineLoop`), so it answers only
  fitted parameters;
* :class:`repro.serve.service.RecommendationService` — a subclass that
  adds a vote cache around each parameter's vote, the (engine,
  generation) state swap, drift tracking and refresh.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.config.rulebook import RuleBook
from repro.core.auric import AuricEngine, Row, Voters
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


class RecommendationPipeline:
    """Auric engine + rule-book fallback, packaged for launch workflows.

    Without a rule-book the loop answers fitted parameters only: a
    default request gets the engine's fitted singular parameters, and
    naming an unfitted one raises :class:`RecommendationError`.
    """

    #: The layer name on results and explanations.
    source = "pipeline"
    #: The span each request is served under.
    span_name = "pipeline.handle"

    def __init__(self, engine: AuricEngine, rulebook: Optional[RuleBook] = None):
        self.engine = engine
        self.rulebook = rulebook

    def handle(self, request: RecommendRequest) -> RecommendResult:
        """Serve one unified request: engine vote with rule-book fallback."""
        return self._serve(self.engine, request)

    def _serve(
        self,
        engine: AuricEngine,
        request: RecommendRequest,
        generation: Optional[int] = None,
    ) -> RecommendResult:
        """One request against ``engine`` — the loop every layer runs.

        ``generation`` is stamped on the result and passed to each
        parameter's step (the service's cache keys carry it); outside
        the service it stays None.
        """
        started = time.perf_counter()
        label = request.label()
        with tracing.span(self.span_name, target=label) as sp:
            names = self._parameter_names(engine, request)
            sp.set("parameters", len(names))
            attributes, row, voters, exclude = engine.resolve_request(request)
            self._observe(attributes)
            result = CarrierRecommendation(target=label)
            dispositions: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
            for name in names:
                rec, cache_state, fallback_reason = self._recommend_parameter(
                    engine, generation, name, attributes, row,
                    voters, exclude, explain=request.explain,
                )
                result.add(rec)
                dispositions[name] = (cache_state, fallback_reason)
            explanation = None
            if request.explain:
                explanation = ResultExplanation(
                    target=label, source=self.source, lineage=engine.lineage
                )
                context = tracing.current_context()
                if context is not None:
                    explanation.trace_id = context[0]
                for name, rec in result.recommendations.items():
                    cache_state, fallback_reason = dispositions[name]
                    explanation.parameters[name] = engine.explain_parameter(
                        rec,
                        row,
                        neighborhood=voters.carriers if request.local else None,
                        cache=cache_state,
                        fallback_reason=fallback_reason,
                    )
            duration = time.perf_counter() - started
            self._record(duration, len(names))
            return RecommendResult(
                request=request,
                recommendation=result,
                source=self.source,
                duration_s=duration,
                exclude=exclude,
                explain=explanation,
                generation=generation,
            )

    def _parameter_names(
        self, engine: AuricEngine, request: RecommendRequest
    ) -> List[str]:
        """The parameters a request names, or the layer's default set.

        Pair-wise parameters are configured per (carrier, neighbor)
        pair, so a request naming one is rejected.  The default set is
        every singular range parameter, plus the singular enumerations
        when the request includes them; without a rule-book to answer
        the unfitted ones it is the engine's fitted singular parameters.
        """
        catalog = engine.catalog
        if request.parameters is not None:
            for name in request.parameters:
                if catalog.spec(name).is_pairwise:
                    raise RecommendationError(
                        f"{name} is pair-wise; handle() serves singular "
                        f"parameters only"
                    )
            return list(request.parameters)
        if self.rulebook is None:
            return [
                name
                for name in engine.fitted_parameters()
                if not catalog.spec(name).is_pairwise
            ]
        names = [s.name for s in catalog.singular_parameters()]
        if request.include_enumerations:
            names += [
                s.name
                for s in catalog.enumeration_parameters()
                if s.kind.value == "singular"
            ]
        return names

    def _observe(self, attributes: CarrierAttributes) -> None:
        """A resolved request's attributes (the service samples them
        for drift scoring)."""

    def _record(self, duration_s: float, parameters: int) -> None:
        """One answered request (the service counts it)."""

    def _recommend_parameter(
        self,
        engine: AuricEngine,
        generation: Optional[int],
        name: str,
        attributes: CarrierAttributes,
        row: Row,
        voters: Voters,
        exclude: Optional[Hashable],
        explain: bool = False,
    ) -> Tuple[ParameterRecommendation, Optional[str], Optional[str]]:
        """One parameter's recommendation plus its serving disposition.

        Returns ``(recommendation, cache_state, fallback_reason)``.
        Here every vote is computed and ``cache_state`` is None; the
        service answers new-carrier requests from its vote cache first,
        keyed by the voters and ``generation``.
        """
        spec = engine.catalog.spec(name)
        rec, fallback_reason = self._compute_parameter(
            engine, name, spec, spec.is_range and name in engine._models,
            attributes, row, voters, exclude, capture=explain,
        )
        return rec, None, fallback_reason

    def _compute_parameter(
        self,
        engine: AuricEngine,
        name: str,
        spec,
        fitted: bool,
        attributes: CarrierAttributes,
        row: Row,
        voters: Voters,
        exclude: Optional[Hashable],
        capture: bool,
    ) -> Tuple[ParameterRecommendation, Optional[str]]:
        """One parameter's vote, or its rule-book fallback.

        Returns ``(recommendation, fallback_reason)``; the reason is
        None when the engine voted.  ``capture`` records the vote
        distribution on the recommendation.  Without a rule-book a
        failed vote re-raises and an unfitted parameter raises.
        """
        if fitted:
            try:
                if voters:
                    rec = engine.recommend_local(
                        name, row, voters, exclude=exclude, capture=capture
                    )
                else:
                    rec = engine.recommend_global(
                        name, row, exclude=exclude, capture=capture
                    )
                return rec, None
            except RecommendationError as error:
                if self.rulebook is None:
                    raise
                fallback_reason = f"vote failed: {error}"
        elif spec.is_range:
            fallback_reason = "parameter not fitted (cold start)"
        else:
            fallback_reason = "enumeration parameter (rule-book)"
        if self.rulebook is None:
            raise RecommendationError(
                f"cannot recommend {name}: not fitted and no rule-book fallback"
            )
        rec = ParameterRecommendation(
            parameter=name,
            value=self.rulebook.value_for(name, attributes),
            support=1.0,
            matched=0.0,
            confident=False,
            scope="rulebook",
        )
        return rec, fallback_reason


class EngineLoop(RecommendationPipeline):
    """The loop as :meth:`AuricEngine.handle` runs it: no rule-book, and
    results labelled ``engine``."""

    source = "engine"
    span_name = "engine.handle"

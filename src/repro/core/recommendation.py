"""Recommendation request/result types.

This module is the single vocabulary every recommendation entry point
speaks: the engine (:meth:`repro.core.auric.AuricEngine.handle`), the
launch pipeline (:meth:`repro.core.pipeline.RecommendationPipeline.handle`)
and the long-lived service
(:meth:`repro.serve.service.RecommendationService.handle`) all accept a
:class:`RecommendRequest` and return a :class:`RecommendResult`, built
by the one request loop in :mod:`repro.core.pipeline`
(``docs/serving.md`` maps the removed per-layer signatures onto it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.netmodel.attributes import CarrierAttributes
from repro.netmodel.identifiers import CarrierId, ENodeBId
from repro.obs.provenance import ResultExplanation
from repro.types import ParameterValue


@dataclass(frozen=True)
class ParameterRecommendation:
    """Auric's recommendation for one parameter on one target.

    ``scope`` records which vote produced the value: ``"local"`` (1-hop
    X2 voting), ``"global"`` (network-wide voting) or ``"rulebook"``
    (cold-start fallback to the operational rule-book).  ``support`` is
    the winning value's share of the vote, ``matched`` the number of
    carriers that voted.  ``confident`` is True when support reaches the
    engine's threshold (75% in the paper).

    ``votes`` is the full vote distribution (winner first) as
    ``(value, weight)`` pairs.  It is captured only when the request
    asked for provenance (``RecommendRequest.explain``); the hot voting
    path leaves it empty.
    """

    parameter: str
    value: ParameterValue
    support: float
    matched: float
    confident: bool
    scope: str
    dependent_attributes: Tuple[str, ...] = ()
    votes: Tuple[Tuple[ParameterValue, float], ...] = ()

    def __str__(self) -> str:
        marker = "" if self.confident else " (low support)"
        return (
            f"{self.parameter} = {self.value!r} "
            f"[{self.scope}, {self.support:.0%} of {self.matched:g}]{marker}"
        )


@dataclass
class CarrierRecommendation:
    """The full set of parameter recommendations for one carrier."""

    target: str
    recommendations: Dict[str, ParameterRecommendation] = field(default_factory=dict)

    def add(self, recommendation: ParameterRecommendation) -> None:
        self.recommendations[recommendation.parameter] = recommendation

    def value_map(self, confident_only: bool = False) -> Dict[str, ParameterValue]:
        """parameter → value, optionally restricted to confident votes."""
        return {
            name: rec.value
            for name, rec in self.recommendations.items()
            if rec.confident or not confident_only
        }

    def mismatches_against(
        self, current: Mapping[str, ParameterValue]
    ) -> List[ParameterRecommendation]:
        """Recommendations that differ from the current configuration."""
        return [
            rec
            for name, rec in sorted(self.recommendations.items())
            if name in current and current[name] != rec.value
        ]

    def __len__(self) -> int:
        return len(self.recommendations)

    def __str__(self) -> str:
        lines = [f"recommendations for {self.target}:"]
        lines.extend(f"  {rec}" for _, rec in sorted(self.recommendations.items()))
        return "\n".join(lines)


@dataclass(frozen=True)
class RecommendRequest:
    """One recommendation query, understood by every entry point.

    The target is either a genuinely *new* carrier (``attributes`` set,
    optionally with a launch ``enodeb_id`` and/or explicit ANR
    ``neighbor_carriers`` for local voting) or an *existing* carrier
    (``carrier_id`` set — its attributes and X2 neighborhood come from
    the network snapshot, and ``leave_one_out`` excludes its own
    configured values from the vote, the paper's evaluation
    methodology).

    ``parameters`` restricts the query (None = the layer's default set);
    ``include_enumerations`` lets layers with a rule-book also fill
    enumeration parameters; ``local=False`` forces network-wide voting.
    ``explain=True`` asks the layer to attach a
    :class:`~repro.obs.provenance.ResultExplanation` — the chi-square
    dependencies, vote distribution and serving disposition behind every
    recommended value — to the result; the loop passes it to the votes
    as ``capture``.
    """

    attributes: Optional[CarrierAttributes] = None
    carrier_id: Optional[CarrierId] = None
    enodeb_id: Optional[ENodeBId] = None
    neighbor_carriers: Tuple[CarrierId, ...] = ()
    parameters: Optional[Tuple[str, ...]] = None
    include_enumerations: bool = True
    local: bool = True
    leave_one_out: bool = False
    explain: bool = False

    def __post_init__(self) -> None:
        if (self.attributes is None) == (self.carrier_id is None):
            raise ValueError(
                "exactly one of attributes (new carrier) or carrier_id "
                "(existing carrier) must identify the target"
            )
        if self.leave_one_out and self.carrier_id is None:
            raise ValueError(
                "leave_one_out only applies to existing-carrier targets"
            )

    @classmethod
    def from_new_carrier(
        cls,
        request,
        parameters: Optional[Tuple[str, ...]] = None,
        include_enumerations: bool = True,
        local: bool = True,
    ) -> "RecommendRequest":
        """Adapt a legacy :class:`~repro.core.pipeline.NewCarrierRequest`
        (or anything with its attributes/enodeb_id/neighbor_carriers
        shape) to the unified request type."""
        return cls(
            attributes=request.attributes,
            enodeb_id=request.enodeb_id,
            neighbor_carriers=tuple(request.neighbor_carriers),
            parameters=tuple(parameters) if parameters is not None else None,
            include_enumerations=include_enumerations,
            local=local,
        )

    def label(self) -> str:
        if self.carrier_id is not None:
            return str(self.carrier_id)
        if self.enodeb_id is not None:
            return f"new-carrier@{self.enodeb_id}"
        return "new-carrier"


@dataclass
class RecommendResult:
    """What a recommendation entry point answered, plus provenance.

    ``source`` names the layer that served the query ("engine",
    "pipeline" or "service"), ``duration_s`` its wall-clock cost, and
    ``exclude`` the leave-one-out key (if any) that was withheld from
    the electorate.  ``explain`` carries the per-parameter provenance
    records when the request asked for them (None otherwise).
    ``generation`` is the serving snapshot generation that answered
    (service layer only; None elsewhere) — under concurrent snapshot
    refresh it always matches the engine that actually voted, because
    the service reads both from one immutable state object.  A
    front-end shard restamps it with the tier generation of the engine
    it answered from.
    """

    request: RecommendRequest
    recommendation: CarrierRecommendation
    source: str = ""
    duration_s: float = 0.0
    exclude: Optional[Hashable] = None
    explain: Optional[ResultExplanation] = None
    generation: Optional[int] = None

    @property
    def parameters(self) -> Tuple[str, ...]:
        return tuple(sorted(self.recommendation.recommendations))

    def scope_counts(self) -> Dict[str, int]:
        """How many parameters each vote scope answered."""
        counts: Dict[str, int] = {}
        for rec in self.recommendation.recommendations.values():
            counts[rec.scope] = counts.get(rec.scope, 0) + 1
        return counts

    def value_map(self, confident_only: bool = False) -> Dict[str, ParameterValue]:
        return self.recommendation.value_map(confident_only)

    def __len__(self) -> int:
        return len(self.recommendation)

    def __str__(self) -> str:
        return str(self.recommendation)

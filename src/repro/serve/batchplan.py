"""One-vote-per-distinct-cell batch execution for the serving layer.

The front end coalesces bursts of new-carrier requests into
micro-batches (PR 6), and the columnar kernels answer a *set* of
distinct cells in one vectorized pass (PR 4) — this module is the
bridge.  A parameter's vote depends only on its (dependent-attribute
cell, neighborhood scope, leave-one-out exclusion) triple, which is
exactly the serving-cache key, so a batch's work factors as:

1. **Plan** — resolve every request against the snapshot once, expand
   its parameter list, and group the per-request parameter votes by
   cache key.  Burst traffic is duplicate-heavy (one eNodeB launching
   a band's worth of carriers shares attributes and neighborhoods), so
   the distinct-key count is typically far below the occurrence count.
2. **Compute** — each distinct key is computed exactly once: global
   no-exclusion votes for fitted parameters go through
   :meth:`~repro.core.auric.AuricEngine.table_global_votes`, one
   vectorized gather over all distinct cells per parameter; local,
   excluded, vote-capturing and rule-book entries take the same
   scalar compute core the serial loop uses.
3. **Scatter** — replay the serial per-request, per-parameter loop in
   request order against each group's state machine: every
   disposition ("hit"/"miss"), fallback reason, provenance record and
   ``service.handle``/``shard.handle`` span comes out exactly as the
   serial loop would have produced it, and the cache ends with the same
   entries in the same recency order (one put per distinct key at its
   last occurrence's slot).  ``handle_batch(planner=False)`` pins the
   serial loop, and the equivalence suite holds the two paths
   byte-identical (modulo wall-clock ``duration_s``).

The planner reads the service's immutable engine state once, so a
mid-batch snapshot refresh never mixes generations inside one batch:
every result carries the generation of the engine that voted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.recommendation import (
    CarrierRecommendation,
    ParameterRecommendation,
    RecommendRequest,
    RecommendResult,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.provenance import ResultExplanation


@dataclass
class BatchReport:
    """What the planner did with one micro-batch.

    ``occurrences`` counts the parameter votes the batch asked for,
    ``distinct`` how many were actually distinct after grouping,
    ``computed`` how many the compute phase ran (cached keys cost
    nothing), and ``vectorized`` how many of those were answered by the
    batched plurality-table gather.  Exposed for tests and folded into
    the ``repro_batch_*`` instruments.
    """

    requests: int = 0
    occurrences: int = 0
    distinct: int = 0
    computed: int = 0
    vectorized: int = 0
    plan_s: float = 0.0
    compute_s: float = 0.0

    @property
    def dedup_savings(self) -> int:
        return self.occurrences - self.distinct

    @property
    def distinct_ratio(self) -> float:
        return self.distinct / self.occurrences if self.occurrences else 1.0


@dataclass(eq=False)
class _Group:
    """One distinct (parameter, cell, scope, exclusion) vote.

    Besides the grouping identity, the group carries the whole serial
    replay for its key: the pre-batch cached entry, the computed
    plain/vote-capturing variants, and ``served`` — the entry the next
    occurrence's cache lookup would have returned, evolving exactly as
    the serial loop's get/put sequence would evolve it.
    """

    key: Tuple
    name: str
    spec: object
    fitted: bool
    attributes: object
    row: Tuple
    neighborhood: Set
    exclude: Optional[Hashable]
    occurrences: int = 0
    #: Did the first occurrence ask for provenance?  Decides whether a
    #: vote-less "plain" variant is ever materialized (the serial loop
    #: computes whatever its first cache miss asks for).
    first_explain: bool = False
    #: Did any occurrence ask for provenance?  Decides whether a
    #: vote-carrying variant is needed at all.
    any_explain: bool = False
    #: The pre-batch cached entry (one peek per distinct key).
    cached: Optional[ParameterRecommendation] = None
    #: What the serving cache would currently return for this key.
    served: Optional[ParameterRecommendation] = None
    #: Computed (recommendation, fallback_reason) variants.
    plain_entry: Optional[Tuple] = None
    votes_entry: Optional[Tuple] = None
    #: Marker for the last-occurrence ordering pass.
    ordered: bool = False

    def note(self, explain: bool) -> None:
        if self.occurrences == 0:
            self.first_explain = explain
        if explain:
            self.any_explain = True
        self.occurrences += 1

    def final_entry(self) -> ParameterRecommendation:
        """The entry the serial loop's last put (or touch) would leave
        in the cache: a computed vote-carrying variant always wins —
        whenever both variants exist, the explain occurrence that
        demanded the second one also put it."""
        if self.votes_entry is not None:
            return self.votes_entry[0]
        if self.plain_entry is not None:
            return self.plain_entry[0]
        return self.cached


@dataclass
class _RequestPlan:
    """One request's resolved serving context plus its vote keys.

    Identical requests (same target, parameter list and voting flags)
    share one plan: resolution, parameter expansion and vote-key
    computation run once per *distinct* request, which is most of the
    planner's edge over the serial loop on duplicate-heavy bursts.
    """

    label: str
    names: List[str]
    attributes: object
    row: Tuple
    neighborhood: Set
    exclude: Optional[Hashable]
    #: Per parameter, aligned with ``names``: the distinct vote group.
    entries: List[_Group] = field(default_factory=list)


def _plan_key(request: RecommendRequest) -> Optional[Tuple]:
    """Dedup key for requests that resolve identically, or None.

    ``explain`` is deliberately absent — it changes what the scatter
    phase serves, not how the target resolves.  New-carrier requests
    key on the identity of their attributes object: resolution is pure,
    so any false negative just skips the dedup, never corrupts it.
    """
    return (
        request.carrier_id
        if request.carrier_id is not None
        else id(request.attributes),
        request.enodeb_id,
        request.neighbor_carriers,
        request.parameters,
        request.include_enumerations,
        request.local,
        request.leave_one_out,
    )


def _record_batch_metrics(report: BatchReport) -> None:
    """Fold one batch into the global ``repro_batch_*`` instruments
    (no-ops while the global registry is disabled)."""
    counter = obs_metrics.counter
    counter(
        "repro_batch_requests_total",
        "Requests served through the batch planner",
    ).inc(float(report.requests))
    counter(
        "repro_batch_parameter_votes_total",
        "Parameter votes requested across planner batches",
    ).inc(float(report.occurrences))
    counter(
        "repro_batch_distinct_votes_total",
        "Distinct (parameter, cell, scope, exclusion) votes per batch",
    ).inc(float(report.distinct))
    counter(
        "repro_batch_computed_votes_total",
        "Distinct votes the compute phase actually ran (not cached)",
    ).inc(float(report.computed))
    counter(
        "repro_batch_vectorized_votes_total",
        "Distinct votes answered by the batched plurality-table gather",
    ).inc(float(report.vectorized))
    counter(
        "repro_batch_dedup_savings_total",
        "Parameter votes deduplicated away by batch grouping",
    ).inc(float(report.dedup_savings))
    counter(
        "repro_batch_planner_seconds_total",
        "Wall-clock seconds spent in plan + compute phases",
    ).inc(report.plan_s + report.compute_s)
    obs_metrics.gauge(
        "repro_batch_distinct_ratio",
        "distinct / requested votes of the most recent planner batch",
    ).set(report.distinct_ratio)


def execute_batch(
    service,
    requests: Sequence[RecommendRequest],
    traces: Optional[Sequence] = None,
    shard: Optional[int] = None,
    report: Optional[BatchReport] = None,
) -> List[RecommendResult]:
    """Serve a micro-batch with one vote per distinct cell.

    The planner entry point behind
    :meth:`~repro.serve.service.RecommendationService.handle_batch`.
    ``traces`` optionally carries one propagated trace context per
    request (the shard worker's), wrapping each request's scatter in a
    ``shard.handle`` span parented at its own trace; ``report``
    receives the batch accounting when provided (tests use this).
    """
    started = time.perf_counter()
    state = service._state
    engine = state.engine
    generation = state.generation
    metrics = service.metrics
    cache = service._cache
    # The ambient thread-local capture flag: under an enclosing capture
    # context every compute collects vote distributions, exactly as the
    # serial loop's `explain or previous` logic does.
    ambient_capture = engine._capture_votes
    rep = report if report is not None else BatchReport()
    rep.requests = len(requests)
    with tracing.span(
        "front.batchplan", requests=len(requests), shard=shard
    ) as sp:
        # -- phase 1: plan -------------------------------------------------
        # Identical requests plan once: resolve, expand and key only the
        # distinct ones, then walk the occurrences in request order so
        # first-miss semantics and drift sampling match the serial loop.
        plan_by_key: Dict[Tuple, _RequestPlan] = {}
        distinct_requests: List[RecommendRequest] = []
        slots: List[Optional[Tuple]] = []
        for request in requests:
            dkey = _plan_key(request)
            if dkey not in plan_by_key:
                plan_by_key[dkey] = None  # claimed; filled after resolve
                distinct_requests.append(request)
            slots.append(dkey)
        resolved = engine.resolve_many(distinct_requests)
        catalog = engine.catalog
        vote_key = service._vote_key
        models = engine._models
        groups: "Dict[Tuple, _Group]" = {}
        for request, (attributes, row, neighborhood, exclude) in zip(
            distinct_requests, resolved
        ):
            names = service._parameter_names(
                catalog, request.parameters, request.include_enumerations
            )
            scope_key = frozenset(neighborhood) if neighborhood else None
            plan = _RequestPlan(
                request.label(), names, attributes, row, neighborhood, exclude
            )
            for name in names:
                spec = catalog.spec(name)
                fitted = spec.is_range and name in models
                key = vote_key(
                    engine, generation, name, fitted, row, scope_key, exclude
                )
                group = groups.get(key)
                if group is None:
                    group = groups[key] = _Group(
                        key, name, spec, fitted, attributes, row,
                        neighborhood, exclude,
                    )
                plan.entries.append(group)
            plan_by_key[_plan_key(request)] = plan
        drift_window = service._drift_window
        plans: List[_RequestPlan] = []
        for request, dkey in zip(requests, slots):
            plan = plan_by_key[dkey]
            plans.append(plan)
            if drift_window is not None:
                drift_window.observe(plan.attributes.values)
            explain = bool(request.explain)
            for group in plan.entries:
                group.note(explain)
        rep.distinct = len(groups)
        rep.occurrences = sum(g.occurrences for g in groups.values())
        # Cache mutations apply once per distinct key, ordered by each
        # key's LAST occurrence — the position the serial loop's final
        # get/put for that key would leave it at in the LRU.
        put_order: List[_Group] = []
        for plan in reversed(plans):
            for group in reversed(plan.entries):
                if not group.ordered:
                    group.ordered = True
                    put_order.append(group)
        put_order.reverse()

        # Which (key, votes-variant) pairs the batch will actually need.
        # The serial loop computes a key at its first cache miss, with
        # vote capture iff that occurrence asked for provenance (or the
        # ambient flag is on); a later explain occurrence that finds a
        # vote-less cached entry recomputes with capture on.  Replaying
        # that decision per distinct key up front tells us everything
        # the scatter phase will ask for.
        pending: List[Tuple[_Group, bool]] = []
        for group in groups.values():
            cached = cache.peek(group.key)
            group.cached = group.served = cached
            if not group.fitted:
                if cached is None:
                    pending.append((group, False))
                continue
            needs_votes = ambient_capture or group.any_explain
            if cached is None:
                if not (ambient_capture or group.first_explain):
                    pending.append((group, False))
                if needs_votes:
                    pending.append((group, True))
            elif group.any_explain and not cached.votes:
                pending.append((group, True))
        rep.plan_s = time.perf_counter() - started

        # -- phase 2: compute each distinct vote once ----------------------
        compute_started = time.perf_counter()
        vector_groups: Dict[str, List[_Group]] = {}
        scalar_pending: List[Tuple[_Group, bool]] = []
        for group, with_votes in pending:
            # Vectorizable: fitted, global scope, no vote capture
            # (capturing votes take the scalar core, which records the
            # distribution).  key[1] is the dependent-attribute cell
            # for fitted keys.
            if group.fitted and not with_votes and not group.neighborhood:
                vector_groups.setdefault(group.name, []).append(group)
            else:
                scalar_pending.append((group, with_votes))
        for name, members in vector_groups.items():
            answers = engine.table_global_votes(
                name,
                [g.key[1] for g in members],
                [g.exclude for g in members],
            )
            for group, rec in zip(members, answers):
                if rec is not None:
                    metrics.record_votes(rec.matched)
                    group.plain_entry = (rec, None)
                    rep.vectorized += 1
                    rep.computed += 1
                else:
                    # Unknown or emptied cell: the scalar core walks
                    # the same relaxation chain the serial loop would.
                    scalar_pending.append((group, False))
        for group, with_votes in scalar_pending:
            outcome = service._compute_parameter(
                engine, group.name, group.spec, group.fitted,
                group.attributes, group.row, group.neighborhood,
                group.exclude, capture=with_votes,
            )
            if with_votes:
                group.votes_entry = outcome
            else:
                group.plain_entry = outcome
            rep.computed += 1
        rep.compute_s = time.perf_counter() - compute_started

        # Apply the batch's net cache effect now, before the scatter:
        # every key ends holding its final entry at its last-occurrence
        # recency slot (put touches like a get), and concurrent batches
        # see the computed votes at the earliest safe moment.
        cache_put = cache.put
        for group in put_order:
            cache_put(group.key, group.final_entry())

        # Plan/compute cost is shared work: spread it evenly over the
        # batch so per-request latencies still add up to wall-clock.
        shared_s = (
            (rep.plan_s + rep.compute_s) / len(requests) if requests else 0.0
        )

        # -- phase 3: scatter in request order -----------------------------
        # Span construction is skipped wholesale while tracing is off
        # (argument evaluation is the cost, not the null handles), and
        # cache dispositions aggregate into two counter increments at
        # the end — the per-lookup serial recording lands on the same
        # final values.
        traced = tracing.active()
        null_span = tracing.null_span()
        perf = time.perf_counter
        cache_hits = 0
        cache_misses = 0
        latencies: List[float] = []
        parameters_served = 0
        results: List[RecommendResult] = []
        for index, (request, plan) in enumerate(zip(requests, plans)):
            request_started = perf()
            if traced and traces is not None:
                shard_span = tracing.span_from_context(
                    traces[index], "shard.handle", shard=shard
                )
            else:
                shard_span = null_span
            with shard_span:
                rsp = (
                    tracing.span("service.handle", target=plan.label)
                    if traced
                    else null_span
                )
                with rsp:
                    result = CarrierRecommendation(target=plan.label)
                    explain = bool(request.explain)
                    dispositions = {} if explain else None
                    for name, group in zip(plan.names, plan.entries):
                        rec, hit, reason = _scatter_occurrence(
                            group, explain, ambient_capture
                        )
                        if hit:
                            cache_hits += 1
                        else:
                            cache_misses += 1
                        result.add(rec)
                        if dispositions is not None:
                            dispositions[name] = (
                                "hit" if hit else "miss", reason
                            )
                    explanation = None
                    if explain:
                        explanation = ResultExplanation(
                            target=plan.label,
                            source="service",
                            lineage=engine.lineage,
                        )
                        context = tracing.current_context()
                        if context is not None:
                            explanation.trace_id = context[0]
                        for name, rec in result.recommendations.items():
                            cache_state, fallback_reason = dispositions[name]
                            explanation.parameters[name] = (
                                engine.explain_parameter(
                                    rec,
                                    plan.row,
                                    neighborhood=(
                                        plan.neighborhood
                                        if request.local
                                        else None
                                    ),
                                    cache=cache_state,
                                    fallback_reason=fallback_reason,
                                )
                            )
                    duration = perf() - request_started + shared_s
                    rsp.set("parameters", len(plan.names))
                    latencies.append(duration)
                    parameters_served += len(plan.names)
                    results.append(
                        RecommendResult(
                            request=request,
                            recommendation=result,
                            source="service",
                            duration_s=duration,
                            exclude=plan.exclude,
                            explain=explanation,
                            generation=generation,
                        )
                    )
        metrics.record_requests_many(latencies, parameters_served)
        metrics.record_cache_many(cache_hits, cache_misses)
        sp.set("occurrences", rep.occurrences)
        sp.set("distinct", rep.distinct)
        sp.set("computed", rep.computed)
        sp.set("vectorized", rep.vectorized)
    metrics.record_batch(rep.occurrences, rep.distinct)
    _record_batch_metrics(rep)
    return results


def _scatter_occurrence(
    group: _Group, explain: bool, ambient_capture: bool
) -> Tuple[ParameterRecommendation, bool, Optional[str]]:
    """One occurrence's share of the scatter replay.

    Mirrors what ``RecommendationService._recommend_parameter`` would
    have observed at this point in the serial loop, replayed against
    the group's state machine instead of the live cache: ``served``
    starts as the pre-batch cached entry and evolves through the same
    first-miss-put and explain-revote-put transitions, so the
    disposition, served object and fallback reason of every occurrence
    come out identical.  (The live cache already holds the final entry
    — the planner applied the batch's net effect after the compute
    phase.)
    """
    served = group.served
    if served is None:
        # The serial loop's first cache miss: compute with vote capture
        # iff this occurrence (or the ambient flag) asked for it.
        if group.fitted and (explain or ambient_capture):
            rec, reason = group.votes_entry
        else:
            rec, reason = group.plain_entry
        group.served = rec
        return rec, False, reason
    if explain and group.fitted and not served.votes:
        # A provenance request hit a vote-less entry: the serial loop
        # re-votes with capture on and re-caches the richer record.
        rec, reason = group.votes_entry
        group.served = rec
        return rec, True, reason
    fallback_reason = (
        None if served.scope != "rulebook" else "served cached rule-book value"
    )
    return served, True, fallback_reason

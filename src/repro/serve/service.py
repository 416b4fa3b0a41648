"""The long-lived recommendation service.

A :class:`RecommendationService` owns a fitted engine plus its network
snapshot and answers :class:`~repro.core.recommendation.RecommendRequest`\\ s
for as long as the process lives — the deployment shape of section 5 of
the paper, where Auric runs as an ongoing service feeding the push
controller, rather than the fit-per-call pattern the experiments use.

It is the request loop of :class:`~repro.core.pipeline.RecommendationPipeline`
(which it subclasses) plus what a long-lived process needs around it:

* a vote-cache lookup around each new-carrier parameter vote,
* the (engine, generation) state swap,
* drift tracking and refresh.

Design points:

* **Lock-free reads.** The serving state — engine plus its generation
  counter — lives in one immutable :class:`_EngineState` object that
  readers load with a single attribute read and writers replace
  atomically, so concurrent ``handle``/``handle_batch`` calls from
  shard threads never serialize on a service lock.  A request always
  sees a consistent (engine, generation) pair: the generation stamped
  on its result is the generation of the engine that actually voted.
  Mutators (refresh, invalidation, drift enablement) still take one
  re-entrant write lock against each other.
* **Generation-stamped, lock-striped vote cache.** A parameter
  recommendation for a new carrier depends only on
  (dependent-attribute cell, neighborhood scope) — two requests that
  agree on the attributes the parameter depends on and on their local
  voters get the same answer, so the vote is computed once.  Keys
  carry the snapshot generation, which makes every pre-swap entry
  unreachable the moment the snapshot refreshes; entries are spread
  over independently locked LRU stripes so concurrent readers rarely
  contend on the same stripe lock.  Per-parameter invalidation is
  O(entries dropped) via a per-parameter key index.  Leave-one-out
  requests bypass the cache: a key would name the one excluded target,
  so only a repeat of the same request could hit it, and a pass over
  the network evicts such entries (and the ones new-carrier requests
  reuse) long before a repeat arrives.
* **Batched serving.** ``handle_batch`` reads the engine state once
  and serves each request of the micro-batch through the per-request
  path against it, so one batch is answered by one generation.  The
  repeated votes of a batch are answered by the vote cache.
* **Cold-start fallback.** A parameter with no fitted model, or a vote
  that cannot produce a value, falls back to the operational rule-book
  (the loop's fallback) and increments the fallback metric instead of
  raising.  A service built without a rule-book serves the engine's
  fitted singular parameters by default.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.config.rulebook import RuleBook
from repro.core.auric import AuricEngine, Row, Voters
from repro.core.pipeline import NewCarrierRequest, RecommendationPipeline
from repro.core.recommendation import (
    CarrierRecommendation,
    ParameterRecommendation,
    RecommendRequest,
    RecommendResult,
)
from repro.exceptions import RecommendationError
from repro.netmodel.attributes import CarrierAttributes
from repro.netmodel.identifiers import CarrierId
from repro.obs import journal as obs_journal
from repro.obs import tracing
from repro.obs.health import (
    DriftDetector,
    DriftReport,
    DriftThresholds,
    DriftWindow,
    baseline_distributions,
)
from repro.obs.metrics import ServiceMetrics

#: Default number of cached (parameter, cell, scope) new-carrier votes.
DEFAULT_CACHE_SIZE = 4096


class _LRUCache:
    """A minimal LRU mapping (not thread-safe; stripes lock around it).

    Every key is a tuple led by the parameter name, and a per-parameter
    key index is maintained alongside the LRU order so ChangeLog
    invalidation drops one parameter's entries in O(entries dropped)
    instead of scanning the whole capacity.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, ParameterRecommendation]" = OrderedDict()
        self._by_parameter: Dict[str, Set[Hashable]] = {}

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Optional[ParameterRecommendation]:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: ParameterRecommendation) -> None:
        if key not in self._data:
            self._by_parameter.setdefault(key[0], set()).add(key)
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            evicted, _ = self._data.popitem(last=False)
            self._unindex(evicted)

    def _unindex(self, key: Hashable) -> None:
        keys = self._by_parameter.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_parameter[key[0]]

    def clear(self) -> int:
        dropped = len(self._data)
        self._data.clear()
        self._by_parameter.clear()
        return dropped

    def drop_parameter(self, parameter: str) -> int:
        """Drop every entry belonging to one parameter (keys lead with it)."""
        stale = self._by_parameter.pop(parameter, None)
        if not stale:
            return 0
        for key in stale:
            del self._data[key]
        return len(stale)


#: Lock stripes in the vote cache: enough that shard threads rarely
#: collide on one stripe lock, few enough that per-stripe LRU capacity
#: stays meaningful.
DEFAULT_CACHE_STRIPES = 8


class _StripedCache:
    """A lock-striped LRU: keys hash to one of N independently locked
    :class:`_LRUCache` stripes.

    Concurrent readers only contend when their keys land on the same
    stripe; total capacity is split evenly (each stripe gets
    ``ceil(capacity / stripes)``).  Whole-cache operations (``clear``,
    ``drop_parameter``, ``__len__``) take the stripe locks one at a
    time — they are rare control-plane events and need no global
    atomicity beyond what generation-stamped keys already give.
    """

    def __init__(self, capacity: int, stripes: int = DEFAULT_CACHE_STRIPES):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        count = max(1, min(stripes, capacity))
        per_stripe = -(-capacity // count)  # ceil
        self._stripes = tuple(_LRUCache(per_stripe) for _ in range(count))
        self._locks = tuple(threading.Lock() for _ in range(count))
        self._count = count

    def __len__(self) -> int:
        total = 0
        for stripe, lock in zip(self._stripes, self._locks):
            with lock:
                total += len(stripe)
        return total

    def _pick(self, key: Hashable) -> int:
        return hash(key) % self._count

    def get(self, key: Hashable) -> Optional[ParameterRecommendation]:
        index = self._pick(key)
        with self._locks[index]:
            return self._stripes[index].get(key)

    def put(self, key: Hashable, value: ParameterRecommendation) -> None:
        index = self._pick(key)
        with self._locks[index]:
            self._stripes[index].put(key, value)

    def clear(self) -> int:
        dropped = 0
        for stripe, lock in zip(self._stripes, self._locks):
            with lock:
                dropped += stripe.clear()
        return dropped

    def drop_parameter(self, parameter: str) -> int:
        dropped = 0
        for stripe, lock in zip(self._stripes, self._locks):
            with lock:
                dropped += stripe.drop_parameter(parameter)
        return dropped


class _EngineState:
    """One immutable (engine, generation) pair.

    Readers grab ``service._state`` once and work against that object
    for the whole request: the reference swap in
    :meth:`RecommendationService.refresh_snapshot` is atomic under the
    GIL, so there is no torn read where a request votes on the new
    engine but stamps the old generation (or vice versa).
    """

    __slots__ = ("engine", "generation")

    def __init__(self, engine: AuricEngine, generation: int):
        self.engine = engine
        self.generation = generation


class RecommendationService(RecommendationPipeline):
    """Serves configuration recommendations from a persistent engine."""

    source = "service"
    span_name = "service.handle"

    def __init__(
        self,
        engine: AuricEngine,
        rulebook: Optional[RuleBook] = None,
        metrics: Optional[ServiceMetrics] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        #: Serializes mutators (refresh, invalidation, drift config)
        #: against each other; the read path never takes it.
        self._write_lock = threading.RLock()
        # The engine lives in the swappable state (the ``engine``
        # property), so the pipeline's constructor is not called.
        self._state = _EngineState(engine, 0)
        self.rulebook = rulebook
        self.metrics = metrics or ServiceMetrics()
        self._cache = _StripedCache(cache_size)
        #: Live request-attribute window for drift scoring; None until
        #: :meth:`enable_drift_tracking` — the hot path pays one ``is
        #: None`` check while disabled.  The window itself is
        #: internally locked, so observing it needs no service lock.
        self._drift_window: Optional[DriftWindow] = None
        self._drift_thresholds = DriftThresholds()
        #: Lifecycle-journal stream id: each service is its own
        #: generation chain (gen 0 at construction, +1 per refresh).
        self.journal_stream = obs_journal.mint_stream("service")

    # -- engine access -------------------------------------------------------

    @property
    def engine(self) -> AuricEngine:
        return self._state.engine

    @property
    def generation(self) -> int:
        """Bumped on every snapshot refresh; lets callers detect swaps."""
        return self._state.generation

    def fitted_parameters(self) -> List[str]:
        return self._state.engine.fitted_parameters()

    def cache_len(self) -> int:
        return len(self._cache)

    # -- serving -------------------------------------------------------------

    def handle(self, request: RecommendRequest) -> RecommendResult:
        """Serve one unified request from the persistent engine.

        The pipeline's loop, against the current engine state.
        Existing-carrier targets resolve their attributes and X2
        neighborhood from the serving snapshot, and leave-one-out
        queries exclude the target's own configured values from the
        vote.  Those votes skip the vote cache (no lookup, no entry,
        ``cache`` None in an explanation), so evaluation traffic never
        evicts launch-serving entries.

        Lock-free: the engine and generation are read once as one
        immutable state object, and the drift window / metrics sinks
        are internally synchronized, so concurrent callers proceed in
        parallel (modulo cache stripe locks).
        """
        state = self._state
        return self._serve(state.engine, request, state.generation)

    def handle_batch(
        self,
        requests: Sequence[RecommendRequest],
        traces: Optional[Sequence] = None,
        shard: Optional[int] = None,
    ) -> List[RecommendResult]:
        """Serve a batch of unified requests (in order).

        The engine state is read once for the whole batch, so every
        result carries the same generation even when a refresh lands
        mid-batch.  ``traces`` optionally carries one propagated trace
        context per request (the front end's shard worker passes them)
        and wraps each request's serving in a ``shard.handle`` span
        parented at its own trace; ``shard`` labels those spans.
        """
        state = self._state
        engine, generation = state.engine, state.generation
        if traces is None:
            return [
                self._serve(engine, request, generation) for request in requests
            ]
        results = []
        for request, trace in zip(requests, traces):
            with tracing.span_from_context(trace, "shard.handle", shard=shard):
                results.append(self._serve(engine, request, generation))
        return results

    def _observe(self, attributes: CarrierAttributes) -> None:
        drift_window = self._drift_window
        if drift_window is not None:
            drift_window.observe(attributes.values)

    def _record(self, duration_s: float, parameters: int) -> None:
        self.metrics.record_request(duration_s, parameters)

    def recommend_neighbors(
        self,
        request: NewCarrierRequest,
        parameters: Optional[Sequence[str]] = None,
    ) -> Dict[CarrierId, CarrierRecommendation]:
        """Pair-wise (handover) recommendations toward each declared
        neighbor of the request.

        Pair-wise parameters are configured per (carrier, neighbor)
        pair, so they need the request's ``neighbor_carriers`` to be
        populated (from ANR data); requests without neighbors get an
        empty result.
        """
        started = time.perf_counter()
        served = 0
        state = self._state
        engine = state.engine
        if parameters is None:
            names = [s.name for s in engine.catalog.pairwise_parameters()]
        else:
            names = list(parameters)
        for name in names:
            if not engine.catalog.spec(name).is_pairwise:
                raise RecommendationError(
                    f"{name} is singular; use handle()"
                )
        own = request.attributes.as_tuple()
        voters = engine.voters(engine.request_neighborhood(request))
        results: Dict[CarrierId, CarrierRecommendation] = {}
        for neighbor_id in request.neighbor_carriers:
            row = own + engine.carrier_row(neighbor_id)
            result = CarrierRecommendation(
                target=f"{request.label()}->{neighbor_id}"
            )
            for name in names:
                rec, _, _ = self._recommend_parameter(
                    engine, state.generation, name, request.attributes,
                    row, voters, None,
                )
                result.add(rec)
                served += 1
            results[neighbor_id] = result
        self.metrics.record_request(time.perf_counter() - started, served)
        return results

    def _recommend_parameter(
        self,
        engine: AuricEngine,
        generation: int,
        name: str,
        attributes: CarrierAttributes,
        row: Row,
        voters: Voters,
        exclude: Optional[Hashable],
        explain: bool = False,
    ) -> Tuple[ParameterRecommendation, Optional[str], Optional[str]]:
        """The loop's per-parameter step, answered from the vote cache.

        Returns ``(recommendation, cache_state, fallback_reason)`` where
        ``cache_state`` is ``"hit"`` or ``"miss"`` and
        ``fallback_reason`` is non-None when the rule-book answered.
        A leave-one-out vote is computed directly and reports
        ``cache_state`` None: its key would name the one excluded
        target, so only a repeat of the same request could hit it.
        """
        spec = engine.catalog.spec(name)
        model = engine._models.get(name) if spec.is_range else None
        fitted = model is not None
        if exclude is not None:
            rec, fallback_reason = self._compute_parameter(
                engine, name, spec, fitted, attributes, row, voters,
                exclude, capture=explain,
            )
            self._record_vote(fallback_reason, rec)
            return rec, None, fallback_reason
        if fitted:
            # The vote depends only on the dependent-attribute cell and
            # the neighborhood scope — the cache key.
            key = (name, model.cell_key(row), voters.key(), generation)
        else:
            # Rule-book lookups depend on the full attribute vector.
            key = (name, row, None, generation)
        cached = self._cache.get(key)
        cache_state = "hit" if cached is not None else "miss"
        self.metrics.record_cache(hit=cached is not None)
        if cached is not None and not (explain and fitted and not cached.votes):
            fallback_reason = (
                None if cached.scope != "rulebook"
                else "served cached rule-book value"
            )
            return cached, cache_state, fallback_reason
        # Cache miss — or an explain request whose cached entry lacks the
        # vote distribution: recompute with vote capture on (the reported
        # cache state stays "hit" so the explanation reflects how plain
        # serving would have answered).
        rec, fallback_reason = self._compute_parameter(
            engine, name, spec, fitted, attributes, row, voters,
            None, capture=explain,
        )
        self._record_vote(fallback_reason, rec)
        self._cache.put(key, rec)
        return rec, cache_state, fallback_reason

    def _record_vote(
        self, fallback_reason: Optional[str], rec: ParameterRecommendation
    ) -> None:
        if fallback_reason is None:
            self.metrics.record_votes(rec.matched)
        else:
            self.metrics.record_fallback()

    # -- drift tracking ------------------------------------------------------

    def enable_drift_tracking(
        self,
        sample_every: int = 8,
        thresholds: Optional[DriftThresholds] = None,
    ) -> DriftWindow:
        """Start sampling served-request attributes for drift scoring.

        Every ``sample_every``-th request's resolved attribute vector is
        folded into a :class:`~repro.obs.health.DriftWindow`;
        :meth:`drift_report` scores it against the population the engine
        votes from.  Idempotent — re-enabling keeps the existing window.
        """
        with self._write_lock:
            if thresholds is not None:
                self._drift_thresholds = thresholds
            if self._drift_window is None:
                self._drift_window = DriftWindow(sample_every=sample_every)
            return self._drift_window

    @property
    def drift_window(self) -> Optional[DriftWindow]:
        return self._drift_window

    def drift_report(self, live=None) -> Optional[DriftReport]:
        """Score live distributions against the serving engine's
        baseline: the value counts of the snapshot it votes from
        (:func:`~repro.obs.health.baseline_distributions`).

        ``live`` is a ``{name: {category: count}}`` mapping; when
        omitted, the sampled request window is scored.  Returns None
        when there is nothing live to score; otherwise publishes the
        ``repro_drift_*`` gauges (zero-cost while the global registry is
        disabled) and returns the report.
        """
        if live is None and self._drift_window is not None:
            live = self._drift_window.counts()
        if not live:
            return None
        engine = self._state.engine
        baseline = baseline_distributions(
            engine.ensure_columnar(), engine.fitted_parameters()
        )
        report = DriftDetector(baseline, self._drift_thresholds).score(live)
        report.record()
        return report

    # -- invalidation & refresh ---------------------------------------------

    def invalidate(self, parameter: Optional[str] = None) -> int:
        """Drop cached votes — all of them, or one parameter's.

        Returns the number of entries dropped.
        """
        with self._write_lock:
            if parameter is None:
                dropped = self._cache.clear()
            else:
                dropped = self._cache.drop_parameter(parameter)
        self.metrics.record_invalidation(dropped)
        return dropped

    def refresh_snapshot(self, engine: AuricEngine) -> int:
        """Atomically swap in a newly fitted engine (new snapshot).

        The old engine keeps serving until the swap: readers that
        loaded the previous state finish against it (stale-but-
        consistent), new readers pick up the fresh state on their next
        ``self._state`` load.  The cache needs no flush-before-swap
        dance — generation-stamped keys make every old entry
        unreachable the instant the state pointer moves; the clear just
        releases the memory.  Returns the new generation.
        """
        with self._write_lock:
            state = _EngineState(engine, self._state.generation + 1)
            self._state = state
            self._cache.clear()
            # The new engine votes from a new population; the window
            # sampled against the old one would read as spurious drift.
            if self._drift_window is not None:
                self._drift_window.clear()
            obs_journal.record(
                "refresh",
                scope="service",
                stream=self.journal_stream,
                generation=state.generation,
                parent_generation=state.generation - 1,
                engine_stream=engine.lineage,
                parameters=len(engine.fitted_parameters()),
            )
            return state.generation

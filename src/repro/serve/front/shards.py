"""Engine shards and the zero-downtime hot-swap protocol.

Each :class:`EngineShard` is one worker thread draining a bounded FIFO
queue of micro-batches into its own
:class:`~repro.serve.service.RecommendationService`.  The services of
one :class:`ShardSet` share a single fitted engine (the vote tables are
read-only after :meth:`~repro.core.auric.AuricEngine.warm_votes`), but
each shard owns a private LRU vote cache — consistent routing keeps a
market's keys concentrated on its shard, and the per-shard service
lock never contends across shards.

**Hot swap.**  A refreshed engine enters the tier through a *swap
sentinel* enqueued on every shard's FIFO queue:

1. the replacement engine is refit (:func:`repro.serve.refresh.refit_engine`,
   or handed in) and **warmed** outside every queue — the old services
   keep serving the whole time (stale-but-available, exactly
   :meth:`EngineRefresher.refit`'s posture);
2. fresh services wrap the new engine, one per shard;
3. a sentinel lands at the tail of each shard queue.  FIFO order is the
   atomicity argument: every batch enqueued before the sentinel drains
   through the **old** service, every batch after it is served by the
   **new** one.  No request is dropped, none observes a half-swapped
   shard, and the tier never blocks — queues keep accepting during the
   drain.

Swap duration (sentinel enqueue → last shard swapped) is exported as
``repro_front_swap_seconds``.  The sentinel carries the generation the
tier moves to, and each shard stamps the generation of the engine it
answers from on every result, so clients — and the storm benchmark's
zero-stale assertion — see exactly which engine answered, also while
some shards have swapped and others not.  The set-wide counter bumps
once the last shard has swapped.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.config.rulebook import RuleBook
from repro.core.auric import AuricEngine
from repro.core.recommendation import RecommendRequest, RecommendResult
from repro.obs import journal as obs_journal
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.serve.front.routing import HashRing, shard_key
from repro.serve.refresh import refit_engine
from repro.serve.service import DEFAULT_CACHE_SIZE, RecommendationService

__all__ = ["EngineShard", "ShardSet", "SwapReport"]

#: Default bound on each shard's batch queue.
DEFAULT_MAX_QUEUE = 256

_STOP = object()


@dataclass
class SwapReport:
    """What one hot swap did."""

    generation: int
    #: Engine build time (fit or load), before any shard was touched.
    refit_s: float
    #: Sentinel enqueue → last shard confirmed on the new service.
    swap_s: float
    #: Models warmed on the incoming engine while the old one served.
    warmed: int
    shards: int


class _SwapSentinel:
    __slots__ = ("service", "generation", "done")

    def __init__(self, service: RecommendationService, generation: int):
        self.service = service
        self.generation = generation
        self.done = threading.Event()


class _BatchItem:
    __slots__ = ("requests", "on_done", "traces", "timings")

    def __init__(
        self,
        requests: Sequence[RecommendRequest],
        on_done: Callable[[Optional[List[RecommendResult]], Optional[BaseException]], None],
        traces: Optional[Sequence] = None,
        timings: Optional[Sequence] = None,
    ):
        self.requests = requests
        self.on_done = on_done
        #: Per-request ``(trace_id, span_id)`` contexts (or ``None``s) —
        #: the shard worker re-roots its spans under each request's
        #: ``front.request`` span.
        self.traces = traces
        #: Per-request :class:`RequestTimings` (or ``None``s) — stamped
        #: ``dequeued`` when the worker picks the batch up.
        self.timings = timings


class EngineShard:
    """One serving shard: a worker thread over a bounded batch queue."""

    def __init__(
        self,
        shard_id: int,
        service: RecommendationService,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        self.shard_id = shard_id
        self._service = service
        #: The tier generation of the engine this shard answers from,
        #: stamped on every result it serves.
        self.generation = 0
        self.max_queue = max_queue
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue)
        self.served = 0
        self.batches = 0
        self._depth_gauge = obs_metrics.gauge(
            "repro_front_queue_depth",
            "Batches waiting on each shard queue",
            labelnames=("shard",),
        ).labels(shard=str(shard_id))
        self._thread = threading.Thread(
            target=self._run, name=f"repro-shard-{shard_id}", daemon=True
        )
        self._thread.start()

    @property
    def service(self) -> RecommendationService:
        return self._service

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    def submit_batch(
        self,
        requests: Sequence[RecommendRequest],
        on_done: Callable[[Optional[List[RecommendResult]], Optional[BaseException]], None],
        traces: Optional[Sequence] = None,
        timings: Optional[Sequence] = None,
    ) -> None:
        """Enqueue one micro-batch; raises :class:`queue.Full` when the
        shard's bound is hit (the caller sheds with a structured 503).

        ``traces``/``timings`` are optional per-request observability
        context (same length as ``requests``) carried across the
        thread boundary.
        """
        self._queue.put_nowait(_BatchItem(requests, on_done, traces, timings))
        self._depth_gauge.set(float(self._queue.qsize()))

    def swap(
        self, service: RecommendationService, generation: int
    ) -> threading.Event:
        """Enqueue a swap sentinel; the event fires once every batch
        ahead of it has drained through the old service and the shard
        answers from ``service``, as ``generation``.  Sentinels bypass
        the queue bound — shedding a swap under load would defeat its
        purpose."""
        sentinel = _SwapSentinel(service, generation)
        self._queue.put(sentinel)
        return sentinel.done

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            self._depth_gauge.set(float(self._queue.qsize()))
            if item is _STOP:
                break
            if isinstance(item, _SwapSentinel):
                self._service = item.service
                self.generation = item.generation
                item.done.set()
                continue
            if item.timings:
                dequeued = time.perf_counter()
                for entry in item.timings:
                    if entry is not None:
                        entry.dequeued = dequeued
            try:
                results = self._handle_item(item)
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                item.on_done(None, exc)
            else:
                for result in results:
                    result.generation = self.generation
                self.served += len(results)
                self.batches += 1
                item.on_done(results, None)

    def _handle_item(self, item: _BatchItem) -> List[RecommendResult]:
        """Serve one dequeued micro-batch, under its trace contexts.

        Both paths route through ``handle_batch``.  With tracing
        enabled and propagated contexts present, the batch runs inside
        a ``front.batch`` span (parented at the first traced request,
        linking every member trace) and the service wraps each
        request's serving in its own ``shard.handle`` span re-rooted at
        that request's ``front.request`` context — so engine spans land
        in the right trace.
        """
        traces = item.traces
        if not tracing.active() or not traces or not any(traces):
            return self._service.handle_batch(item.requests)
        first = next(trace for trace in traces if trace)
        links = [trace[0] for trace in traces if trace]
        with tracing.span_from_context(
            first,
            "front.batch",
            shard=self.shard_id,
            batch_size=len(item.requests),
            links=links,
        ):
            return self._service.handle_batch(
                item.requests, traces=traces, shard=self.shard_id
            )

    def stop(self, timeout: float = 5.0) -> None:
        self._queue.put(_STOP)
        self._thread.join(timeout=timeout)


class ShardSet:
    """The routed collection of engine shards behind the front end."""

    def __init__(
        self,
        engine: AuricEngine,
        rulebook: Optional[RuleBook] = None,
        shards: int = 2,
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_queue: int = DEFAULT_MAX_QUEUE,
        warm: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("shard count must be positive")
        if rulebook is None:
            rulebook = RuleBook(engine.catalog)
        self.rulebook = rulebook
        self.cache_size = cache_size
        if warm:
            engine.warm_votes()
        self._services = [
            RecommendationService(engine, rulebook, cache_size=cache_size)
            for _ in range(shards)
        ]
        self._shards = [
            EngineShard(i, service, max_queue=max_queue)
            for i, service in enumerate(self._services)
        ]
        self._ring = HashRing(range(shards))
        self._swap_lock = threading.Lock()
        #: Bumped once per completed hot swap, after the last shard
        #: swapped (each response carries its shard's own generation).
        self.generation = 0
        #: Lifecycle-journal stream for the tier's generation counter —
        #: the one clients see on responses.
        self.journal_stream = obs_journal.mint_stream("front")
        obs_journal.record(
            "front-start",
            scope="front",
            stream=self.journal_stream,
            generation=0,
            shards=shards,
            engine_stream=engine.lineage,
            parameters=len(engine.fitted_parameters()),
        )
        self._swap_gauge = obs_metrics.gauge(
            "repro_front_swap_seconds",
            "Duration of the most recent shard hot-swap (drain + swap)",
        )
        self._swap_counter = obs_metrics.counter(
            "repro_front_swaps_total", "Completed shard-set hot swaps"
        )

    # -- routing -------------------------------------------------------------

    @property
    def shards(self) -> List[EngineShard]:
        return list(self._shards)

    @property
    def services(self) -> List[RecommendationService]:
        return list(self._services)

    def shard_for_key(self, key: Hashable) -> EngineShard:
        return self._shards[self._ring.node_for(key)]

    def shard_for(self, request: RecommendRequest) -> EngineShard:
        return self.shard_for_key(shard_key(request))

    # -- cache coherence across shards ---------------------------------------

    def invalidate(self, parameter: Optional[str] = None) -> int:
        """Drop cached votes on every shard; returns entries dropped."""
        return sum(
            service.invalidate(parameter) for service in self._services
        )

    # -- hot swap ------------------------------------------------------------

    def hot_swap(
        self,
        engine: Optional[AuricEngine] = None,
        jobs: int = 1,
        warm: bool = True,
        trigger: Optional[str] = None,
    ) -> SwapReport:
        """Swap a refreshed engine into every shard with zero downtime.

        With ``engine=None`` a full refit runs first on the current
        snapshot (:func:`refit_engine`, outside every shard queue) — the
        old services keep serving throughout.
        The new engine warms, fresh services wrap it, and a FIFO swap
        sentinel lands on each shard queue; see the module docstring
        for the atomicity argument.  ``trigger`` annotates the
        lifecycle-journal record (e.g. ``drift``, ``push``, ``storm``).
        """
        with self._swap_lock:
            with tracing.span("front.swap", shards=len(self._shards)) as sp:
                refit_started = time.perf_counter()
                if engine is None:
                    engine, _ = refit_engine(self._services[0].engine, jobs=jobs)
                refit_s = time.perf_counter() - refit_started
                warmed = engine.warm_votes() if warm else 0

                new_services = [
                    RecommendationService(
                        engine, self.rulebook, cache_size=self.cache_size
                    )
                    for _ in self._shards
                ]
                swap_started = time.perf_counter()
                events = [
                    shard.swap(service, self.generation + 1)
                    for shard, service in zip(self._shards, new_services)
                ]
                for event in events:
                    event.wait()
                swap_s = time.perf_counter() - swap_started

                self._services = new_services
                self.generation += 1
                self._swap_gauge.set(swap_s)
                self._swap_counter.inc()
                sp.set("generation", self.generation)
                sp.set("swap_s", round(swap_s, 6))
                obs_journal.record(
                    "hot-swap",
                    scope="front",
                    stream=self.journal_stream,
                    generation=self.generation,
                    parent_generation=self.generation - 1,
                    trigger=trigger or "manual",
                    duration_s=refit_s + swap_s,
                    refit_s=round(refit_s, 6),
                    swap_s=round(swap_s, 6),
                    warmed=warmed,
                    shards=len(self._shards),
                    engine_stream=engine.lineage,
                )
                return SwapReport(
                    generation=self.generation,
                    refit_s=refit_s,
                    swap_s=swap_s,
                    warmed=warmed,
                    shards=len(self._shards),
                )

    # -- lifecycle / stats ---------------------------------------------------

    def stats(self) -> Dict:
        return {
            "shards": len(self._shards),
            "generation": self.generation,
            "served": sum(s.served for s in self._shards),
            "batches": sum(s.batches for s in self._shards),
            "queue_depths": {s.shard_id: s.depth for s in self._shards},
            "cache_entries": sum(
                service.cache_len() for service in self._services
            ),
        }

    def stop(self) -> None:
        for shard in self._shards:
            shard.stop()

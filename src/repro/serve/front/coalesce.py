"""Micro-batch coalescing of concurrent single-carrier requests.

During a launch storm many independent clients ask for one carrier
each within the same few milliseconds.  Serving them one-by-one pays
the per-call dispatch overhead (a shard-queue hand-off and a thread
wake-up) N times.  The coalescer batches by backlog, after Nagle's rule
(RFC 896): each shard has at most one coalesced batch outstanding.  A
request for an idle shard is handed to it at once; requests that
arrive while that batch is being served form the next batch, capped at
``max_batch`` and flushed as a single ``handle_batch`` call on the
shard worker when the outstanding batch returns (:meth:`release`).
No request waits on a timer.  Batch sizes are observed in
``repro_front_batch_size`` — the distribution is the direct measure of
how much coalescing the storm achieved.

The coalescer is confined to the asyncio event loop (submit, flush and
release all run there); only the flush *callback* hands work to a
shard thread.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, Optional, Tuple

from repro.core.recommendation import RecommendRequest
from repro.obs import metrics as obs_metrics
from repro.serve.front.timings import RequestTimings

__all__ = ["Coalescer", "Entry"]

#: Batch-size histogram buckets (requests per flush).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Entry:
    """One coalesced request: the payload, the future its response
    resolves, and the observability context riding along — the
    request's trace context (``(trace_id, span_id)`` of its
    ``front.request`` span, or ``None``) and its
    :class:`~repro.serve.front.timings.RequestTimings`."""

    __slots__ = ("request", "future", "trace", "timings")

    def __init__(
        self,
        request: RecommendRequest,
        future: "asyncio.Future",
        trace: Optional[Tuple[str, str]] = None,
        timings: Optional[RequestTimings] = None,
    ):
        self.request = request
        self.future = future
        self.trace = trace
        self.timings = timings


class Coalescer:
    """Accumulates one shard's requests into micro-batches by backlog."""

    def __init__(
        self,
        flush: Callable[[List[Entry]], None],
        max_batch: int,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self._flush_fn = flush
        self.max_batch = max_batch
        self._loop = loop
        self._pending: List[Entry] = []
        #: True while a flushed batch has not come back via release().
        self._outstanding = False
        self._batch_histogram = obs_metrics.histogram(
            "repro_front_batch_size",
            "Coalesced requests per shard batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._coalesced_counter = obs_metrics.counter(
            "repro_front_coalesced_total",
            "Requests that shared a flush with at least one other request",
        )

    @property
    def pending(self) -> int:
        return len(self._pending)

    def _get_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    def submit(
        self,
        request: RecommendRequest,
        trace: Optional[Tuple[str, str]] = None,
        timings: Optional[RequestTimings] = None,
    ) -> "asyncio.Future":
        """Queue one request; returns the future its result resolves.

        The request is flushed at once when no batch is outstanding,
        otherwise it waits for :meth:`release`.  ``trace``/``timings``
        ride with the entry to the shard worker — a backlog flush runs
        outside the request's coroutine (no :mod:`contextvars`
        inheritance), so the context must travel explicitly.
        """
        future: asyncio.Future = self._get_loop().create_future()
        if timings is not None:
            timings.submitted = time.perf_counter()
        self._pending.append(Entry(request, future, trace, timings))
        if not self._outstanding:
            self._flush()
        return future

    def release(self) -> int:
        """The outstanding batch came back (answered, failed or shed):
        free the slot and flush the backlog; returns the new batch's size."""
        self._outstanding = False
        return self._flush()

    def _flush(self) -> int:
        """Hand up to ``max_batch`` pending entries to the shard as the
        outstanding batch; returns its size."""
        if not self._pending:
            return 0
        batch = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        self._outstanding = True
        flushed = time.perf_counter()
        for entry in batch:
            if entry.timings is not None:
                entry.timings.flushed = flushed
        self._batch_histogram.observe(float(len(batch)))
        if len(batch) > 1:
            self._coalesced_counter.inc(len(batch))
        self._flush_fn(batch)
        return len(batch)

    def close(self) -> None:
        """Fail any stranded entries."""
        batch, self._pending = self._pending, []
        for entry in batch:
            if not entry.future.done():
                entry.future.set_exception(RuntimeError("coalescer closed"))

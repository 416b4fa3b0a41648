"""Per-request timing breakdown through the serving path.

One :class:`RequestTimings` rides with each request from HTTP accept to
response write, collecting monotonic stamps at every hand-off:

* ``accepted`` — request parsed and routed (the front door),
* ``submitted`` — admitted and handed to the shard's coalescer,
* ``flushed`` — the coalescer put the micro-batch on the shard queue
  (at once for an idle shard, else when its previous batch returned),
* ``dequeued`` — the shard worker picked the batch up,

plus two measured durations: ``engine_s`` (the service/engine call,
straight from ``RecommendResult.duration_s``) and ``serialize_s``
(building the response body).  The derived phases — ``queue`` (shard
queue wait), ``coalesce`` (wait behind the shard's outstanding batch),
``engine``, ``serialize`` — are what the ``Server-Timing`` header and
the body's ``timings`` field expose, and what the retroactive
``front.coalesce`` / ``front.queue`` spans are cut from.

Stamps are :func:`time.perf_counter` values — comparable across the
event loop and the shard worker threads of one process — with a
wall-clock anchor captured at construction so spans can be placed on
the epoch timeline (:meth:`wall`).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["RequestTimings"]


class RequestTimings:
    """Monotonic hand-off stamps + measured phases for one request."""

    __slots__ = (
        "anchor_wall",
        "anchor_perf",
        "accepted",
        "submitted",
        "flushed",
        "dequeued",
        "finished",
        "engine_s",
        "serialize_s",
    )

    def __init__(self) -> None:
        self.anchor_wall = time.time()
        self.anchor_perf = time.perf_counter()
        self.accepted = self.anchor_perf
        self.submitted: Optional[float] = None
        self.flushed: Optional[float] = None
        self.dequeued: Optional[float] = None
        self.finished: Optional[float] = None
        self.engine_s: Optional[float] = None
        self.serialize_s: Optional[float] = None

    def wall(self, perf_stamp: float) -> float:
        """Map a perf_counter stamp onto the epoch timeline."""
        return self.anchor_wall + (perf_stamp - self.anchor_perf)

    @staticmethod
    def _delta(start: Optional[float], end: Optional[float]) -> float:
        if start is None or end is None:
            return 0.0
        return max(0.0, end - start)

    @property
    def coalesce_s(self) -> float:
        """Time parked behind the shard's outstanding batch (submit → flush)."""
        return self._delta(self.submitted, self.flushed)

    @property
    def queue_s(self) -> float:
        """Time waiting on the shard queue (flush → dequeue)."""
        return self._delta(self.flushed, self.dequeued)

    @property
    def total_s(self) -> float:
        end = self.finished if self.finished is not None else time.perf_counter()
        return max(0.0, end - self.accepted)

    def breakdown_ms(self) -> Dict[str, float]:
        """The ``timings`` body field: phase durations in milliseconds."""
        return {
            "queue_ms": round(self.queue_s * 1000.0, 3),
            "coalesce_ms": round(self.coalesce_s * 1000.0, 3),
            "engine_ms": round((self.engine_s or 0.0) * 1000.0, 3),
            "serialize_ms": round((self.serialize_s or 0.0) * 1000.0, 3),
            "total_ms": round(self.total_s * 1000.0, 3),
        }

    def server_timing(self) -> str:
        """The ``Server-Timing`` header value (phase;dur=ms, ...)."""
        parts = [
            ("queue", self.queue_s),
            ("coalesce", self.coalesce_s),
            ("engine", self.engine_s or 0.0),
            ("serialize", self.serialize_s or 0.0),
            ("total", self.total_s),
        ]
        return ", ".join(
            f"{name};dur={duration * 1000.0:.3f}" for name, duration in parts
        )

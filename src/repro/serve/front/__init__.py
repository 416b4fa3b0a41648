"""repro.serve.front — the sharded async serving front end.

The network surface in front of the recommendation engine: an asyncio
HTTP server that routes each request to a per-market
:class:`~repro.serve.service.RecommendationService` shard via a
consistent-hash ring, coalesces concurrent single-carrier requests into
micro-batches served against one engine state through ``handle_batch``,
applies admission control and backpressure (bounded queues, structured
503 load shedding), and hot-swaps refitted engines into the shards with
zero downtime (FIFO swap sentinels: the old service drains while the
new one warms).

* :mod:`repro.serve.front.routing` — the consistent-hash ring and
  request → shard-key extraction.
* :mod:`repro.serve.front.admission` — global in-flight and per-shard
  queue bounds; :class:`OverloadError` is the 503 body.
* :mod:`repro.serve.front.coalesce` — micro-batching by shard backlog.
* :mod:`repro.serve.front.shards` — shard worker threads and the
  atomic hot-swap protocol.
* :mod:`repro.serve.front.server` — the asyncio HTTP surface.
* :mod:`repro.serve.front.traffic` — the launch-storm traffic
  generator that gates the whole tier (``BENCH_serve_scale.json``).
"""

from repro.serve.front.admission import AdmissionController, OverloadError
from repro.serve.front.coalesce import Coalescer
from repro.serve.front.routing import HashRing, shard_key
from repro.serve.front.server import (
    FrontConfig,
    FrontServer,
    ServerHandle,
    serve_in_thread,
)
from repro.serve.front.shards import EngineShard, ShardSet, SwapReport
from repro.serve.front.traffic import StormProfile, StormReport, run_storm

__all__ = [
    "AdmissionController",
    "OverloadError",
    "Coalescer",
    "HashRing",
    "shard_key",
    "FrontConfig",
    "FrontServer",
    "ServerHandle",
    "serve_in_thread",
    "EngineShard",
    "ShardSet",
    "SwapReport",
    "StormProfile",
    "StormReport",
    "run_storm",
]

"""repro.serve — persistent model artifacts + a long-lived service.

The deployment-facing layer: train the Auric engine once, persist the
fitted state as a versioned artifact, and serve many recommendation
requests from one process — with caching, metrics, cold-start fallback
to the rule-book, and refits as the network grows.

* :mod:`repro.serve.artifacts` — save/load a fitted engine with
  recommendation-identical round-trips.
* :mod:`repro.serve.service` — the lock-free-read
  :class:`RecommendationService` with generation-stamped, lock-striped
  LRU vote caching and explicit invalidation.
* :mod:`repro.serve.refresh` — changelog and full refits with
  stale-but-available swapping.
* Service metrics live in :mod:`repro.obs.metrics`
  (:class:`ServiceMetrics`, re-exported here for convenience).
* :mod:`repro.serve.validation` — structured payload validation
  (:class:`RequestValidationError` names the field and reason; the
  front end's 400 body).
* :mod:`repro.serve.front` — the sharded asyncio HTTP front end
  (consistent-hash routing, micro-batch coalescing, admission control,
  zero-downtime hot swap).  Imported explicitly — ``from
  repro.serve.front import ...`` — so library users of the in-process
  service never pay for the network stack.
"""

from repro.serve.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    artifact_fingerprint,
    engine_from_dict,
    engine_to_dict,
    load_engine,
    save_engine,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_REFRESH_BUCKETS,
    ServiceMetrics,
)
from repro.serve.refresh import (
    DriftCheck,
    EngineRefresher,
    RefreshResult,
)
from repro.serve.service import DEFAULT_CACHE_SIZE, RecommendationService
from repro.serve.validation import (
    RequestValidationError,
    unified_request_from_dict,
    unified_requests_from_json,
)

__all__ = [
    "RequestValidationError",
    "unified_request_from_dict",
    "unified_requests_from_json",
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "artifact_fingerprint",
    "engine_from_dict",
    "engine_to_dict",
    "load_engine",
    "save_engine",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_REFRESH_BUCKETS",
    "ServiceMetrics",
    "DriftCheck",
    "EngineRefresher",
    "RefreshResult",
    "DEFAULT_CACHE_SIZE",
    "RecommendationService",
]

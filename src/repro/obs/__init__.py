"""repro.obs — unified observability for the Auric reproduction.

Three pillars, all zero-cost when disabled:

* :mod:`repro.obs.metrics` — a process-wide metrics registry
  (counters, gauges, fixed-bucket histograms) with Prometheus-text and
  JSON exposition,
* :mod:`repro.obs.tracing` — nested wall-clock spans with context
  propagation across the :mod:`repro.parallel` process pool,
* :mod:`repro.obs.provenance` — typed "why this value" records
  attached to recommendation results and audit history.

Plus :mod:`repro.obs.logs`, a ``key=value`` structured-logging setup
shared by the CLI and the serving/ops layers; :mod:`repro.obs.records`,
the one record sink (a lock-free bounded ring plus an optional
append-only JSONL file) and its tolerant reader, which spans, flight
digests and journal records share; and the health layer that turns the
raw instruments into operational signal:

* :mod:`repro.obs.health` — drift baselines counted off the snapshot
  an engine votes from, scored against live snapshots (PSI +
  chi-square drift detection), and the
  aggregated :class:`HealthReport` behind ``repro health``,
* :mod:`repro.obs.slo` — declarative service-level objectives over
  existing registry instruments with error-budget accounting,
* :mod:`repro.obs.profiler` — a sampling wall-clock profiler emitting
  flamegraph-ready collapsed stacks with span attribution,
* :mod:`repro.obs.dashboard` — a static-HTML health snapshot,
* :mod:`repro.obs.flight` — an always-on black-box flight recorder of
  recent request digests, dumped on SLO breach / shed burst / SIGTERM,
* :mod:`repro.obs.journal` — the engine-lifecycle journal, an
  fsync'd record-sink file: every generation transition (fit, refresh,
  incremental refit, hot swap, push, rollback) records its trigger,
  drift scores, refit kind, fingerprints and parent generation, and
  ``repro timeline`` replays the generation DAG.
"""

from repro.obs.logs import KeyValueFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_REFRESH_BUCKETS,
    BucketHistogram,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullInstrument,
    NullRegistry,
    ServiceMetrics,
    counter,
    disable as disable_metrics,
    enable as enable_metrics,
    enabled as metrics_enabled,
    gauge,
    get_registry,
    histogram,
    set_registry,
)
from repro.obs.provenance import (
    AttributeDependence,
    ParameterExplanation,
    ResultExplanation,
    VoteShare,
)
from repro.obs.records import RecordScan, RecordSink, read_records
from repro.obs.tracing import (
    Span,
    TraceTree,
    Tracer,
    active_spans,
    assemble_trace,
    collect,
    configure as configure_tracing,
    current_context,
    disable as disable_tracing,
    format_traceparent,
    get_tracer,
    ingest,
    parse_traceparent,
    record_span,
    span,
    span_from_context,
    use_context,
    active as tracing_active,
)
from repro.obs.flight import (
    FlightRecorder,
    RequestDigest,
    configure as configure_flight,
    disable as disable_flight,
    get_recorder as get_flight_recorder,
    record as record_flight,
)
from repro.obs.journal import (
    EngineJournal,
    Timeline,
    TimelineNode,
    active as journal_active,
    assemble_timeline,
    configure as configure_journal,
    disable as disable_journal,
    get_journal,
    mint_stream,
    read_journal,
    record as record_journal,
)

# The health layer builds on metrics/tracing/logs above, so these
# imports must stay below them (they read the partially-initialized
# package during import).
from repro.obs.dashboard import render_dashboard
from repro.obs.health import (
    AttributeDrift,
    DriftDetector,
    DriftReport,
    DriftThresholds,
    DriftWindow,
    HealthReport,
    baseline_distributions,
    chi_square_drift,
    population_stability_index,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.slo import (
    ErrorBudget,
    SLOEngine,
    SLOReport,
    SLOResult,
    SLORule,
    default_service_slos,
)

__all__ = [
    "AttributeDependence",
    "AttributeDrift",
    "BucketHistogram",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_REFRESH_BUCKETS",
    "DriftDetector",
    "DriftReport",
    "DriftThresholds",
    "DriftWindow",
    "EngineJournal",
    "ErrorBudget",
    "FlightRecorder",
    "Gauge",
    "HealthReport",
    "RequestDigest",
    "SLOEngine",
    "SLOReport",
    "SLOResult",
    "SLORule",
    "SamplingProfiler",
    "ServiceMetrics",
    "Histogram",
    "KeyValueFormatter",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullInstrument",
    "NullRegistry",
    "ParameterExplanation",
    "RecordScan",
    "RecordSink",
    "ResultExplanation",
    "Span",
    "Timeline",
    "TimelineNode",
    "TraceTree",
    "Tracer",
    "VoteShare",
    "active_spans",
    "assemble_timeline",
    "assemble_trace",
    "baseline_distributions",
    "chi_square_drift",
    "collect",
    "configure_flight",
    "configure_journal",
    "configure_logging",
    "configure_tracing",
    "counter",
    "current_context",
    "default_service_slos",
    "disable_flight",
    "disable_journal",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "format_traceparent",
    "gauge",
    "get_flight_recorder",
    "get_journal",
    "get_logger",
    "get_registry",
    "get_tracer",
    "histogram",
    "ingest",
    "journal_active",
    "metrics_enabled",
    "mint_stream",
    "parse_traceparent",
    "population_stability_index",
    "read_journal",
    "read_records",
    "record_flight",
    "record_journal",
    "record_span",
    "render_dashboard",
    "set_registry",
    "span",
    "span_from_context",
    "tracing_active",
    "use_context",
]

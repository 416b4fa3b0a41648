"""The unified metrics registry: counters, gauges, fixed-bucket histograms.

One registry owns every instrument behind a single lock; instruments are
created (or fetched, get-or-create) by name through
:meth:`MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge` /
:meth:`~MetricsRegistry.histogram`, optionally with label names.  The
registry exports itself two ways:

* :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` series with a ``+Inf`` tail, ``_sum``/``_count``),
* :meth:`MetricsRegistry.to_dict` / :meth:`MetricsRegistry.from_dict` —
  a JSON-round-trippable plain-dict form.

Instrumented library code never talks to a registry directly — it goes
through the module-level :func:`counter` / :func:`gauge` /
:func:`histogram` helpers, which proxy to the process-global registry.
That global defaults to :data:`NULL_REGISTRY`, whose instruments are
shared no-op singletons, so instrumentation is zero-cost until
:func:`enable` installs a real registry (the ``repro metrics`` CLI
command, tests, or an embedding service).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "BucketHistogram",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_LABEL_SERIES",
    "DEFAULT_REFRESH_BUCKETS",
    "DROPPED_SERIES_METRIC",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullInstrument",
    "NullRegistry",
    "OVERFLOW_LABEL",
    "ServiceMetrics",
    "counter",
    "parse_prometheus_labels",
    "disable",
    "enable",
    "gauge",
    "get_registry",
    "histogram",
    "set_registry",
]

#: Default histogram buckets (seconds): microseconds for cache hits up
#: to tens of seconds for full refits.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Label-value tuple a family collapses new series onto once it hits the
#: registry's ``max_label_series`` cap — one catch-all child per family,
#: so a mis-labelled hot path (say, a raw carrier id used as a label)
#: cannot grow the registry without bound.
OVERFLOW_LABEL = "__overflow__"

#: Default per-family series cap.  Generous — the widest legitimate
#: family is ``repro_fit_phase_seconds{phase,parameter}`` at
#: (3 phases × #parameters); a four-digit cap only trips on genuinely
#: unbounded label values.
DEFAULT_MAX_LABEL_SERIES = 1024

#: Counter tracking series collapsed by the cardinality guard.  Exempt
#: from the guard itself (its own cardinality is bounded by the number
#: of families).
DROPPED_SERIES_METRIC = "repro_metrics_dropped_series_total"

#: Request-latency buckets (seconds) — tuned for an in-process service
#: where a cache hit is microseconds and a cold vote is milliseconds.
#: Shared by the serving facade (:class:`ServiceMetrics`) and the health
#: layer's latency SLO rules, so quantiles are computed over one bucket
#: layout.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _validate_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    values = tuple(float(b) for b in buckets)
    if not values:
        raise ValueError("histogram needs at least one bucket bound")
    if list(values) != sorted(values) or len(set(values)) != len(values):
        raise ValueError(
            "histogram buckets must be strictly increasing, got "
            f"{list(values)}"
        )
    return values


class BucketHistogram:
    """A fixed-bucket cumulative histogram (Prometheus-style ``le``).

    The standalone data core of the registry's :class:`Histogram`
    instrument.  ``counts[i]`` is the number of observations that landed
    in bucket ``i`` (non-cumulative); the last slot is the ``+Inf`` tail.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets: Tuple[float, ...] = _validate_buckets(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +inf tail
        self.total = 0.0
        self.count = 0
        #: bucket index -> ``(trace_id, value, unix_ts)`` of the most
        #: recent exemplar observation landing in that bucket.  Links a
        #: p99 bucket straight to a trace id (OpenMetrics exemplars).
        self.exemplars: Dict[int, Tuple[str, float, float]] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self.total += value
        self.count += 1
        index = len(self.buckets)  # +Inf tail unless a bound matches
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        if exemplar is not None:
            self.exemplars[index] = (str(exemplar), float(value), time.time())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket that
        contains the ``q``-th observation (conservative)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bound in enumerate(self.buckets):
            seen += self.counts[index]
            if seen >= target:
                return bound
        return float("inf")

    def cumulative_counts(self) -> List[Tuple[str, int]]:
        """``(le, cumulative count)`` pairs ending at ``+Inf == count``."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            running += bucket_count
            out.append((_format_number(bound), running))
        out.append(("+Inf", running + self.counts[-1]))
        return out

    def as_dict(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "buckets": {
                **{str(b): c for b, c in zip(self.buckets, self.counts)},
                "+inf": self.counts[-1],
            },
        }


def _format_number(value: float) -> str:
    """Render a sample value the way Prometheus text expects."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labelnames: Tuple[str, ...], labelvalues: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


def _escape(value: str) -> str:
    """Escape a label value per the text exposition format: backslash
    first (so later escapes are not double-escaped), then double-quote
    and newline."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    """Escape HELP text per the exposition format (backslash and
    newline only — quotes are legal in help docstrings)."""
    return str(value).replace("\\", "\\\\").replace("\n", "\\n")


def parse_prometheus_labels(label_text: str) -> Dict[str, str]:
    """Parse one ``{name="value",...}`` label block back into a dict.

    The inverse of :func:`_format_labels` — a small, strict parser used
    by the escaping round-trip tests (and handy for scraping our own
    exposition in-process).  Raises ``ValueError`` on malformed input.
    """
    if not label_text:
        return {}
    if not (label_text.startswith("{") and label_text.endswith("}")):
        raise ValueError(f"not a label block: {label_text!r}")
    body = label_text[1:-1]
    out: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq]
        if not body[eq + 1 : eq + 2] == '"':
            raise ValueError(f"label {name!r} value is not quoted")
        i = eq + 2
        chars: List[str] = []
        while True:
            if i >= len(body):
                raise ValueError("unterminated label value")
            ch = body[i]
            if ch == "\\":
                nxt = body[i + 1 : i + 2]
                if nxt == "n":
                    chars.append("\n")
                elif nxt in ('"', "\\"):
                    chars.append(nxt)
                else:
                    raise ValueError(f"bad escape \\{nxt}")
                i += 2
                continue
            if ch == '"':
                i += 1
                break
            chars.append(ch)
            i += 1
        out[name] = "".join(chars)
        if i < len(body):
            if body[i] != ",":
                raise ValueError(f"expected ',' at {i} in {body!r}")
            i += 1
    return out


class _Instrument:
    """One (metric family, label values) series."""

    kind = ""

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]):
        self._family = family
        self._lock = family._lock
        self._labelvalues = labelvalues

    @property
    def name(self) -> str:
        return self._family.name

    @property
    def labelvalues(self) -> Tuple[str, ...]:
        return self._labelvalues

    def labels(self, *values, **kwargs) -> "_Instrument":
        return self._family.labels(*values, **kwargs)


class Counter(_Instrument):
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]):
        super().__init__(family, labelvalues)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]):
        super().__init__(family, labelvalues)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """A registered fixed-bucket histogram series."""

    kind = "histogram"

    def __init__(
        self,
        family: "_Family",
        labelvalues: Tuple[str, ...],
        buckets: Sequence[float],
    ):
        super().__init__(family, labelvalues)
        self._data = BucketHistogram(buckets)

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        with self._lock:
            self._data.observe(value, exemplar=exemplar)

    def exemplars(self) -> Dict[int, Tuple[str, float, float]]:
        with self._lock:
            return dict(self._data.exemplars)

    @property
    def buckets(self) -> Tuple[float, ...]:
        return self._data.buckets

    @property
    def count(self) -> int:
        with self._lock:
            return self._data.count

    @property
    def total(self) -> float:
        with self._lock:
            return self._data.total

    @property
    def mean(self) -> float:
        with self._lock:
            return self._data.mean

    def quantile(self, q: float) -> float:
        with self._lock:
            return self._data.quantile(q)

    def as_dict(self) -> Dict:
        with self._lock:
            return self._data.as_dict()


class _Family:
    """A named metric family: label names plus its child series."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        self._lock = registry._lock
        self._registry = registry
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: "Dict[Tuple[str, ...], _Instrument]" = {}

    def _make_child(self, labelvalues: Tuple[str, ...]) -> _Instrument:
        if self.kind == "counter":
            return Counter(self, labelvalues)
        if self.kind == "gauge":
            return Gauge(self, labelvalues)
        return Histogram(self, labelvalues, self.buckets or DEFAULT_BUCKETS)

    def labels(self, *values, **kwargs) -> _Instrument:
        """The child series for one label-value combination."""
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name")
            try:
                values = tuple(str(kwargs[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name} needs labels {self.labelnames}"
                ) from exc
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes {len(self.labelnames)} label "
                f"values {self.labelnames}, got {len(values)}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                if self._at_series_cap():
                    return self._overflow_child()
                child = self._make_child(values)
                self._children[values] = child
            return child

    def _at_series_cap(self) -> bool:
        """True when a *new* labelled series would breach the registry's
        cardinality cap.  Existing series keep updating; only creation
        is collapsed.  Unlabelled families (one child) and the
        dropped-series counter itself are exempt."""
        cap = self._registry.max_label_series
        if cap is None or not self.labelnames:
            return False
        if self.name == DROPPED_SERIES_METRIC:
            return False
        live = len(self._children)
        if (OVERFLOW_LABEL,) * len(self.labelnames) in self._children:
            live -= 1  # the catch-all child doesn't count against the cap
        return live >= cap

    def _overflow_child(self) -> _Instrument:
        """Get-or-create the catch-all series and count the drop.

        Called under ``self._lock``; the lock is reentrant, so bumping
        the dropped-series counter through the registry is safe."""
        values = (OVERFLOW_LABEL,) * len(self.labelnames)
        child = self._children.get(values)
        if child is None:
            child = self._make_child(values)
            self._children[values] = child
        self._registry.counter(
            DROPPED_SERIES_METRIC,
            "Label series collapsed to __overflow__ by the cardinality cap",
            labelnames=("metric",),
        ).labels(self.name).inc()
        return child

    def children(self) -> List[_Instrument]:
        with self._lock:
            return [self._children[k] for k in sorted(self._children)]


class MetricsRegistry:
    """Counters, gauges and histograms behind one lock."""

    def __init__(
        self, max_label_series: Optional[int] = DEFAULT_MAX_LABEL_SERIES
    ) -> None:
        if max_label_series is not None and max_label_series < 1:
            raise ValueError("max_label_series must be >= 1 (or None)")
        self._lock = threading.RLock()
        self._families: "Dict[str, _Family]" = {}
        #: Per-family cap on distinct label-value series; ``None``
        #: disables the guard.  Once a family holds this many series,
        #: novel label combinations collapse onto a shared
        #: ``__overflow__`` child and
        #: ``repro_metrics_dropped_series_total{metric}`` counts them.
        self.max_label_series = max_label_series

    # -- instrument creation -------------------------------------------------

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name} already registered as a "
                        f"{family.kind} with labels {family.labelnames}"
                    )
                return family
            family = _Family(
                self,
                name,
                help_text,
                kind,
                labelnames,
                _validate_buckets(buckets) if buckets is not None else None,
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ):
        """Get or create a counter (the unlabeled child when no labels)."""
        family = self._family(name, help_text, "counter", labelnames)
        return family if labelnames else family.labels()

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ):
        family = self._family(name, help_text, "gauge", labelnames)
        return family if labelnames else family.labels()

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ):
        family = self._family(name, help_text, "histogram", labelnames, buckets)
        return family if labelnames else family.labels()

    # -- introspection -------------------------------------------------------

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    # -- exposition ----------------------------------------------------------

    def to_prometheus_text(self, exemplars: bool = False) -> str:
        """The Prometheus text exposition format.

        With ``exemplars=True``, histogram bucket lines carry their
        OpenMetrics exemplar suffix (``# {trace_id="..."} value ts``)
        when one was recorded — off by default because the classic
        Prometheus text format does not allow it.
        """
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                label_text = _format_labels(family.labelnames, child.labelvalues)
                if family.kind == "histogram":
                    data = child._data
                    with self._lock:
                        cumulative = data.cumulative_counts()
                        total, count = data.total, data.count
                        bucket_exemplars = dict(data.exemplars)
                    for index, (le, cum) in enumerate(cumulative):
                        bucket_labels = _format_labels(
                            family.labelnames + ("le",),
                            child.labelvalues + (le,),
                        )
                        line = f"{family.name}_bucket{bucket_labels} {cum}"
                        if exemplars and index in bucket_exemplars:
                            trace_id, value, ts = bucket_exemplars[index]
                            line += (
                                f' # {{trace_id="{_escape(trace_id)}"}} '
                                f"{_format_number(value)} {ts:.3f}"
                            )
                        lines.append(line)
                    lines.append(
                        f"{family.name}_sum{label_text} {_format_number(total)}"
                    )
                    lines.append(f"{family.name}_count{label_text} {count}")
                else:
                    lines.append(
                        f"{family.name}{label_text} "
                        f"{_format_number(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict:
        """A JSON-serializable dump (round-trips via :meth:`from_dict`)."""
        out: Dict = {}
        for family in self.families():
            series = []
            for child in family.children():
                labels = dict(zip(family.labelnames, child.labelvalues))
                if family.kind == "histogram":
                    with self._lock:
                        series.append(
                            {
                                "labels": labels,
                                "count": child._data.count,
                                "sum": child._data.total,
                                "counts": list(child._data.counts),
                            }
                        )
                else:
                    series.append({"labels": labels, "value": child.value})
            entry: Dict = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series,
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets or DEFAULT_BUCKETS)
            out[family.name] = entry
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for name in sorted(payload):
            entry = payload[name]
            kind = entry["type"]
            labelnames = tuple(entry.get("labelnames", ()))
            if kind == "histogram":
                family = registry._family(
                    name, entry.get("help", ""), kind, labelnames,
                    entry.get("buckets", DEFAULT_BUCKETS),
                )
            else:
                family = registry._family(
                    name, entry.get("help", ""), kind, labelnames
                )
            for series in entry.get("series", ()):
                labels = series.get("labels", {})
                values = tuple(str(labels[n]) for n in labelnames)
                child = family.labels(*values) if labelnames else family.labels()
                if kind == "histogram":
                    child._data.count = int(series["count"])
                    child._data.total = float(series["sum"])
                    child._data.counts = [int(c) for c in series["counts"]]
                else:
                    child._value = float(series["value"])
        return registry


class NullInstrument:
    """A shared no-op stand-in for every instrument type."""

    __slots__ = ()
    kind = "null"
    name = ""
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def labels(self, *values, **kwargs) -> "NullInstrument":
        return self

    def as_dict(self) -> Dict:
        return {}


_NULL_INSTRUMENT = NullInstrument()


class NullRegistry:
    """The disabled registry: every instrument is the shared no-op."""

    def counter(self, name, help_text="", labelnames=()):
        return _NULL_INSTRUMENT

    def gauge(self, name, help_text="", labelnames=()):
        return _NULL_INSTRUMENT

    def histogram(self, name, help_text="", buckets=DEFAULT_BUCKETS, labelnames=()):
        return _NULL_INSTRUMENT

    def families(self) -> List:
        return []

    def get(self, name: str) -> None:
        return None

    def to_prometheus_text(self, exemplars: bool = False) -> str:
        return ""

    def to_dict(self) -> Dict:
        return {}


NULL_REGISTRY = NullRegistry()

#: The process-global registry instrumented code records into.
_REGISTRY = NULL_REGISTRY


def get_registry():
    """The current process-global registry (null when disabled)."""
    return _REGISTRY


def set_registry(registry) -> None:
    """Install a registry (or :data:`NULL_REGISTRY`) as the global."""
    global _REGISTRY
    _REGISTRY = registry


def enable() -> MetricsRegistry:
    """Install (or return the already-installed) real global registry."""
    global _REGISTRY
    if not isinstance(_REGISTRY, MetricsRegistry):
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    """Return the global registry to the zero-cost null implementation."""
    global _REGISTRY
    _REGISTRY = NULL_REGISTRY


def enabled() -> bool:
    return isinstance(_REGISTRY, MetricsRegistry)


def counter(name: str, help_text: str = "", labelnames: Sequence[str] = ()):
    """A counter on the global registry (no-op while disabled)."""
    return _REGISTRY.counter(name, help_text, labelnames)


def gauge(name: str, help_text: str = "", labelnames: Sequence[str] = ()):
    """A gauge on the global registry (no-op while disabled)."""
    return _REGISTRY.gauge(name, help_text, labelnames)


def histogram(
    name: str,
    help_text: str = "",
    buckets: Sequence[float] = DEFAULT_BUCKETS,
    labelnames: Sequence[str] = (),
):
    """A histogram on the global registry (no-op while disabled)."""
    return _REGISTRY.histogram(name, help_text, buckets, labelnames)


# -- service-facing facade -----------------------------------------------------
#
# ServiceMetrics: the serving layer's view of the registry, the single
# source of truth for service metrics.

#: Default refresh-duration buckets (seconds) — refits are much slower.
DEFAULT_REFRESH_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


class ServiceMetrics:
    """Counters + histograms for one :class:`RecommendationService`.

    Thread-safe: the service answers requests from many threads, and the
    refresher records from a background thread; every instrument sits
    behind the backing registry's single lock.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: The backing registry; expose it so embedders can scrape the
        #: service in Prometheus text form (:meth:`to_prometheus_text`).
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._requests = reg.counter(
            "repro_service_requests_total", "Recommendation requests served"
        )
        self._parameters = reg.counter(
            "repro_service_parameters_served_total",
            "Parameter recommendations served",
        )
        cache = reg.counter(
            "repro_service_cache_lookups_total",
            "Vote-cache lookups by result",
            labelnames=("result",),
        )
        # Resolved once: a label lookup per vote-cache lookup is a
        # measurable share of a warm batch.
        self._cache_hits = cache.labels("hit")
        self._cache_misses = cache.labels("miss")
        self._fallbacks = reg.counter(
            "repro_service_fallbacks_total",
            "Cold-start rule-book fallbacks served",
        )
        self._invalidations = reg.counter(
            "repro_service_invalidations_total", "Vote-cache invalidations"
        )
        self._refreshes = reg.counter(
            "repro_service_refreshes_total", "Engine snapshot refreshes"
        )
        self._votes = reg.counter(
            "repro_service_votes_total", "Matched-carrier votes counted"
        )
        self.request_latency = reg.histogram(
            "repro_service_request_latency_seconds",
            "Request latency",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.refresh_duration = reg.histogram(
            "repro_service_refresh_duration_seconds",
            "Snapshot refresh duration",
            buckets=DEFAULT_REFRESH_BUCKETS,
        )

    # -- recording ----------------------------------------------------------

    def record_request(self, latency_s: float, parameters: int) -> None:
        self._requests.inc()
        self._parameters.inc(parameters)
        self.request_latency.observe(latency_s)

    def record_cache(self, hit: bool) -> None:
        (self._cache_hits if hit else self._cache_misses).inc()

    def record_votes(self, matched: float) -> None:
        self._votes.inc(matched)

    def record_fallback(self) -> None:
        self._fallbacks.inc()

    def record_invalidation(self, entries_dropped: int = 0) -> None:
        self._invalidations.inc()

    def record_refresh(self, duration_s: float) -> None:
        self._refreshes.inc()
        self.refresh_duration.observe(duration_s)

    # -- counter views ------------------------------------------------------

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def parameters_served(self) -> int:
        return int(self._parameters.value)

    @property
    def cache_hits(self) -> int:
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        return int(self._cache_misses.value)

    @property
    def fallbacks(self) -> int:
        return int(self._fallbacks.value)

    @property
    def invalidations(self) -> int:
        return int(self._invalidations.value)

    @property
    def refreshes(self) -> int:
        return int(self._refreshes.value)

    @property
    def votes(self) -> float:
        return self._votes.value

    # -- derived rates ------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def fallback_rate(self) -> float:
        served = self.parameters_served
        return self.fallbacks / served if served else 0.0

    @property
    def votes_per_request(self) -> float:
        requests = self.requests
        return self.votes / requests if requests else 0.0

    def as_dict(self) -> Dict:
        """A plain-dict export (for tests, the CLI and log lines)."""
        return {
            "requests": self.requests,
            "parameters_served": self.parameters_served,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "fallbacks": self.fallbacks,
            "fallback_rate": self.fallback_rate,
            "invalidations": self.invalidations,
            "refreshes": self.refreshes,
            "votes": self.votes,
            "votes_per_request": self.votes_per_request,
            "request_latency": self.request_latency.as_dict(),
            "refresh_duration": self.refresh_duration.as_dict(),
        }

    def to_prometheus_text(self) -> str:
        """The backing registry in Prometheus text exposition format."""
        return self.registry.to_prometheus_text()

    def summary(self) -> str:
        """A one-paragraph human rendering for the CLI."""
        d = self.as_dict()
        return (
            f"requests={d['requests']} parameters={d['parameters_served']} "
            f"cache_hit_rate={d['cache_hit_rate']:.1%} "
            f"fallbacks={d['fallbacks']} ({d['fallback_rate']:.1%}) "
            f"votes/request={d['votes_per_request']:.1f} "
            f"mean_latency={d['request_latency']['mean'] * 1e3:.3f}ms "
            f"refreshes={d['refreshes']}"
        )

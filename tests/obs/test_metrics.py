"""Tests for the unified metrics registry and its expositions."""

import re

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    BucketHistogram,
    MetricsRegistry,
    NullInstrument,
)
from repro.obs.metrics import ServiceMetrics

_SAMPLE = re.compile(r"^(\w+)(\{[^}]*\})? (.+)$")


def parse_prometheus(text):
    """(name, labels-text) → float value for every sample line."""
    samples = {}
    helps, types = {}, {}
    for line in text.strip().splitlines():
        if line.startswith("# HELP "):
            _, _, name, help_text = line.split(" ", 3)
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        match = _SAMPLE.match(line)
        assert match is not None, f"unparseable sample line: {line!r}"
        name, labels, value = match.groups()
        samples[(name, labels or "")] = float(value)
    return samples, helps, types


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_monotonic(self, registry):
        counter = registry.counter("repro_things_total", "things")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_series(self, registry):
        first = registry.counter("repro_things_total")
        second = registry.counter("repro_things_total")
        first.inc()
        assert second.value == 1.0

    def test_kind_conflict_rejected(self, registry):
        registry.counter("repro_things_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_things_total")

    def test_labels(self, registry):
        family = registry.counter(
            "repro_pushes_total", "pushes", labelnames=("outcome",)
        )
        family.labels("pushed").inc()
        family.labels(outcome="pushed").inc()
        family.labels("timeout").inc()
        assert family.labels("pushed").value == 2.0
        with pytest.raises(ValueError, match="label"):
            family.labels("a", "b")

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("repro_depth")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 4.0

    def test_bucket_validation_message_names_offenders(self):
        with pytest.raises(ValueError) as excinfo:
            BucketHistogram(buckets=(0.1, 0.5, 0.5, 1.0))
        assert "strictly increasing" in str(excinfo.value)
        assert "[0.1, 0.5, 0.5, 1.0]" in str(excinfo.value)
        histogram = BucketHistogram(obs_metrics.DEFAULT_LATENCY_BUCKETS)
        histogram.observe(0.0002)
        histogram.observe(0.002)
        assert histogram.count == 2
        assert histogram.quantile(1.0) >= 0.002
        assert histogram.mean == pytest.approx(0.0011)


class TestPrometheusText:
    @pytest.fixture()
    def text(self, registry):
        registry.counter("repro_requests_total", "Requests served").inc(7)
        family = registry.counter(
            "repro_pushes_total", "Pushes by outcome", labelnames=("outcome",)
        )
        family.labels("pushed").inc(3)
        family.labels("timeout").inc()
        histogram = registry.histogram(
            "repro_latency_seconds", "Latency", buckets=(0.001, 0.01, 0.1)
        )
        for value in (0.0004, 0.002, 0.05, 3.0):
            histogram.observe(value)
        return registry.to_prometheus_text()

    def test_parses_and_has_headers(self, text):
        samples, helps, types = parse_prometheus(text)
        assert helps["repro_requests_total"] == "Requests served"
        assert types["repro_latency_seconds"] == "histogram"
        assert samples[("repro_requests_total", "")] == 7.0
        assert samples[("repro_pushes_total", '{outcome="pushed"}')] == 3.0

    def test_bucket_series_is_cumulative_with_inf_tail(self, text):
        samples, _, _ = parse_prometheus(text)
        buckets = []
        for line in text.splitlines():  # exposition order, not sorted
            match = _SAMPLE.match(line)
            if match and match.group(1) == "repro_latency_seconds_bucket":
                buckets.append((match.group(2), float(match.group(3))))
        values = [value for _, value in buckets]
        assert values == sorted(values), "bucket counts must be cumulative"
        assert buckets[-1][0] == '{le="+Inf"}'
        assert buckets[-1][1] == samples[("repro_latency_seconds_count", "")]

    def test_sum_and_count_consistent(self, text):
        samples, _, _ = parse_prometheus(text)
        assert samples[("repro_latency_seconds_count", "")] == 4.0
        assert samples[("repro_latency_seconds_sum", "")] == pytest.approx(
            0.0004 + 0.002 + 0.05 + 3.0
        )


class TestJsonRoundTrip:
    def test_registry_round_trips(self, registry):
        registry.counter("repro_requests_total", "Requests").inc(5)
        family = registry.gauge("repro_depth", "Depth", labelnames=("queue",))
        family.labels("fit").set(2)
        histogram = registry.histogram(
            "repro_latency_seconds", "Latency", buckets=(0.01, 0.1)
        )
        histogram.observe(0.05)

        payload = registry.to_dict()
        rebuilt = MetricsRegistry.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.to_prometheus_text() == registry.to_prometheus_text()


class TestGlobalRegistry:
    def test_disabled_by_default_instruments_are_null(self):
        assert not obs_metrics.enabled()
        instrument = obs_metrics.counter("repro_things_total")
        assert isinstance(instrument, NullInstrument)
        instrument.inc()  # must be a silent no-op
        assert instrument.labels("x") is instrument

    def test_enable_routes_module_proxies(self):
        registry = obs_metrics.enable()
        try:
            obs_metrics.counter("repro_things_total", "things").inc()
            family = registry.get("repro_things_total")
            assert family is not None
            assert family.labels().value == 1.0
            assert "repro_things_total 1" in registry.to_prometheus_text()
        finally:
            obs_metrics.disable()
        assert not obs_metrics.enabled()


class TestServiceMetricsFacade:
    def test_as_dict_shape_preserved(self):
        metrics = ServiceMetrics()
        metrics.record_request(0.002, parameters=3)
        metrics.record_cache(hit=True)
        metrics.record_cache(hit=False)
        metrics.record_votes(12.0)
        metrics.record_fallback()
        metrics.record_refresh(0.5)

        exported = metrics.as_dict()
        assert exported["requests"] == 1
        assert exported["parameters_served"] == 3
        assert exported["cache_hits"] == 1
        assert exported["cache_misses"] == 1
        assert exported["cache_hit_rate"] == 0.5
        assert exported["votes"] == 12.0
        assert exported["votes_per_request"] == 12.0
        assert exported["refreshes"] == 1
        assert exported["request_latency"]["count"] == 1
        assert exported["refresh_duration"]["count"] == 1
        assert "requests=1" in metrics.summary()

    def test_backed_by_registry_exposition(self):
        metrics = ServiceMetrics()
        metrics.record_request(0.002, parameters=2)
        samples, _, _ = parse_prometheus(metrics.to_prometheus_text())
        assert samples[("repro_service_requests_total", "")] == 1.0
        assert samples[("repro_service_parameters_served_total", "")] == 2.0


class TestExpositionEdgeCases:
    """Prometheus text-format corners: escaping, +Inf ordering, labeled
    histogram JSON round-trips."""

    def test_label_value_escaping(self, registry):
        family = registry.counter(
            "repro_weird_total", "Weird labels", labelnames=("path",)
        )
        family.labels('a\\b"c\nd').inc()
        text = registry.to_prometheus_text()
        # One escaped sample line: backslash, quote and newline encoded.
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_weird_total{")
        )
        assert line == 'repro_weird_total{path="a\\\\b\\"c\\nd"} 1'
        # The document still parses line-by-line (no raw newline leaked
        # out of the label value).
        assert 'c\nd"' not in text

    def test_escaped_labels_round_trip_through_dict(self, registry):
        family = registry.gauge(
            "repro_weird", "Weird", labelnames=("path",)
        )
        family.labels('a\\b"c\nd').set(4.0)
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.to_prometheus_text() == registry.to_prometheus_text()

    def test_inf_tail_follows_finite_buckets_per_labelset(self, registry):
        family = registry.histogram(
            "repro_latency_seconds",
            "Latency",
            buckets=(0.01, 0.1),
            labelnames=("path",),
        )
        family.labels("vote").observe(0.5)
        family.labels("cache").observe(0.005)
        lines = [
            line
            for line in registry.to_prometheus_text().splitlines()
            if line.startswith("repro_latency_seconds_bucket")
        ]
        # Per label set: finite buckets ascending, then exactly one +Inf.
        assert len(lines) == 6
        for start in (0, 3):
            chunk = lines[start:start + 3]
            les = [
                line.split('le="')[1].split('"')[0] for line in chunk
            ]
            assert les == ["0.01", "0.1", "+Inf"]
            values = [float(line.rsplit(" ", 1)[1]) for line in chunk]
            assert values == sorted(values)

    def test_labeled_histogram_from_dict_round_trip(self, registry):
        family = registry.histogram(
            "repro_latency_seconds",
            "Latency",
            buckets=(0.001, 0.01, 0.1),
            labelnames=("path", "scope"),
        )
        family.labels("vote", "local").observe(0.05)
        family.labels("vote", "local").observe(0.002)
        family.labels("cache", "global").observe(0.0005)

        payload = registry.to_dict()
        rebuilt = MetricsRegistry.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.to_prometheus_text() == registry.to_prometheus_text()
        child = rebuilt.get("repro_latency_seconds").labels("vote", "local")
        assert child.count == 2
        assert child.quantile(1.0) >= 0.01


class TestExpositionEscaping:
    """Label values and HELP text survive the text format round trip."""

    EVIL = 'a\\b"c\nd,e={}'

    def test_label_values_escape_and_parse_back(self, registry):
        from repro.obs.metrics import parse_prometheus_labels

        registry.counter(
            "repro_evil_total", "evil", labelnames=("reason",)
        ).labels(self.EVIL).inc()
        text = registry.to_prometheus_text()
        sample = next(
            line for line in text.splitlines()
            if line.startswith("repro_evil_total{")
        )
        # one physical line per sample, even with a newline in the value
        assert "\n" not in sample
        label_text = sample[len("repro_evil_total"):sample.rindex(" ")]
        assert parse_prometheus_labels(label_text) == {"reason": self.EVIL}

    def test_help_text_is_escaped(self, registry):
        registry.counter(
            "repro_helpful_total", "line one\nline two \\ backslash"
        ).inc()
        text = registry.to_prometheus_text()
        help_line = next(
            line for line in text.splitlines() if line.startswith("# HELP")
        )
        assert help_line == (
            "# HELP repro_helpful_total line one\\nline two \\\\ backslash"
        )

    def test_histogram_le_and_labels_coexist(self, registry):
        from repro.obs.metrics import parse_prometheus_labels

        registry.histogram(
            "repro_evil_seconds", "evil", buckets=(0.1,),
            labelnames=("path",),
        ).labels('with"quote').observe(0.05)
        text = registry.to_prometheus_text()
        bucket = next(
            line for line in text.splitlines()
            if line.startswith("repro_evil_seconds_bucket")
        )
        labels = parse_prometheus_labels(
            bucket[len("repro_evil_seconds_bucket"):bucket.rindex(" ")]
        )
        assert labels == {"path": 'with"quote', "le": "0.1"}

    def test_parser_rejects_malformed_blocks(self):
        from repro.obs.metrics import parse_prometheus_labels

        with pytest.raises(ValueError):
            parse_prometheus_labels('{a=unquoted}')
        with pytest.raises(ValueError):
            parse_prometheus_labels('{a="unterminated}')
        with pytest.raises(ValueError):
            parse_prometheus_labels('not-a-block')


class TestCardinalityGuard:
    def test_overflow_collapses_new_series(self):
        from repro.obs.metrics import DROPPED_SERIES_METRIC, OVERFLOW_LABEL

        registry = MetricsRegistry(max_label_series=3)
        family = registry.counter(
            "repro_requests_total", "requests", labelnames=("carrier",)
        )
        for index in range(3):
            family.labels(f"carrier-{index}").inc()
        overflowed = family.labels("carrier-99")
        overflowed.inc()
        family.labels("carrier-100").inc()
        assert overflowed.labelvalues == (OVERFLOW_LABEL,)
        # both novel series landed on the same catch-all child
        assert overflowed.value == 2.0
        dropped = registry.get(DROPPED_SERIES_METRIC)
        assert dropped.labels("repro_requests_total").value == 2.0

    def test_existing_series_keep_updating_at_cap(self):
        registry = MetricsRegistry(max_label_series=2)
        family = registry.counter(
            "repro_requests_total", "", labelnames=("carrier",)
        )
        family.labels("a").inc()
        family.labels("b").inc()
        family.labels("a").inc()  # existing: not collapsed
        assert family.labels("a").value == 2.0
        assert registry.get("repro_metrics_dropped_series_total") is None

    def test_overflow_child_does_not_consume_the_cap(self):
        from repro.obs.metrics import OVERFLOW_LABEL

        registry = MetricsRegistry(max_label_series=1)
        family = registry.counter(
            "repro_requests_total", "", labelnames=("carrier",)
        )
        family.labels("a").inc()
        family.labels("b").inc()  # collapses, creating the catch-all
        # the catch-all child is exempt: "a" still resolves to itself
        assert family.labels("a").labelvalues == ("a",)
        assert family.labels("c").labelvalues == (OVERFLOW_LABEL,)

    def test_unlabeled_families_are_exempt(self):
        registry = MetricsRegistry(max_label_series=1)
        registry.counter("repro_a_total").inc()
        registry.counter("repro_b_total").inc()
        assert registry.get("repro_b_total") is not None

    def test_none_disables_the_guard(self):
        registry = MetricsRegistry(max_label_series=None)
        family = registry.counter(
            "repro_requests_total", "", labelnames=("carrier",)
        )
        for index in range(50):
            family.labels(f"c{index}").inc()
        assert len(family.children()) == 50

    def test_dropped_series_counter_is_exempt_from_the_guard(self):
        from repro.obs.metrics import DROPPED_SERIES_METRIC, OVERFLOW_LABEL

        registry = MetricsRegistry(max_label_series=1)
        for name in ("repro_a_total", "repro_b_total", "repro_c_total"):
            family = registry.counter(name, "", labelnames=("x",))
            family.labels("keep").inc()
            family.labels("drop").inc()
        dropped = registry.get(DROPPED_SERIES_METRIC)
        # one child per overflowing family — never collapsed itself
        values = {child.labelvalues for child in dropped.children()}
        assert values == {
            ("repro_a_total",), ("repro_b_total",), ("repro_c_total",)
        }
        assert (OVERFLOW_LABEL,) not in values

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_label_series=0)

    def test_overflow_survives_prometheus_and_dict_round_trip(self):
        registry = MetricsRegistry(max_label_series=1)
        family = registry.counter(
            "repro_requests_total", "requests", labelnames=("carrier",)
        )
        family.labels("a").inc()
        family.labels("b").inc()
        text = registry.to_prometheus_text()
        assert '__overflow__' in text
        rebuilt = MetricsRegistry.from_dict(registry.to_dict())
        assert rebuilt.to_prometheus_text() == text

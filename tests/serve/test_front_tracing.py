"""End-to-end tests of request tracing through the HTTP front end.

A real server with tracing and the flight recorder enabled: W3C
``traceparent`` round-trips, ``Server-Timing`` / ``timings`` breakdowns,
``/debug/trace`` span-tree reconstruction with no orphans,
``/debug/flight`` digests (success and shed), histogram exemplars on
``/metrics``, and trace continuity across a mid-run hot swap.
"""

import http.client
import json
import time

import pytest

from repro.dataio.keys import carrier_key_to_str
from repro.obs import flight, tracing
from repro.obs import metrics as obs_metrics
from repro.serve.front import FrontConfig, ShardSet, serve_in_thread

from .conftest import SERVE_PARAMETERS

SINGULAR = tuple(n for n in SERVE_PARAMETERS if n != "hysA3Offset")

TRACE_LEVELS = (
    "front.request",
    "front.admission",
    "front.coalesce",
    "shard.handle",
    "service.handle",
)


@pytest.fixture(scope="module")
def traced_front(fitted_engine, rulebook, tmp_path_factory):
    obs_metrics.enable()
    tracing.configure([])
    flight.configure(
        capacity=512,
        dump_dir=str(tmp_path_factory.mktemp("flight-dumps")),
    )
    shard_set = ShardSet(fitted_engine, rulebook, shards=2, max_queue=64)
    handle = serve_in_thread(
        shard_set,
        FrontConfig(
            shards=2,
            max_inflight=64,
            parameters=SINGULAR,
        ),
    )
    yield shard_set, handle
    handle.stop()
    shard_set.stop()
    flight.disable()
    tracing.disable()
    obs_metrics.disable()


@pytest.fixture()
def client(traced_front):
    _, handle = traced_front
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def carrier_keys(dataset):
    keys = []
    for enodeb in dataset.network.enodebs():
        for template in enodeb.carriers():
            keys.append(carrier_key_to_str(template.carrier_id))
    return keys


def call(conn, method, path, payload=None, headers=None):
    body = None if payload is None else json.dumps(payload).encode()
    send_headers = dict(headers or {})
    if body:
        send_headers.setdefault("Content-Type", "application/json")
    conn.request(method, path, body=body, headers=send_headers)
    response = conn.getresponse()
    raw = response.read()
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw.decode("utf-8", "replace")
    return response.status, parsed, dict(response.getheaders())


def span_names(tree):
    names = []

    def walk(nodes):
        for node in nodes:
            names.append(node["name"])
            walk(node["children"])

    walk(tree["roots"])
    walk(tree["orphans"])
    return names


def fetch_tree(conn, trace_id, retries=20):
    """The span ring fills asynchronously; poll briefly."""
    for _ in range(retries):
        status, tree, _ = call(conn, "GET", f"/debug/trace/{trace_id}")
        if status == 200 and len(
            set(span_names(tree)) & set(TRACE_LEVELS)
        ) == len(TRACE_LEVELS):
            return tree
        time.sleep(0.05)
    return tree


class TestTraceparentRoundTrip:
    def test_response_carries_traceparent_and_server_timing(
        self, client, carrier_keys
    ):
        status, body, headers = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        assert tracing.parse_traceparent(headers["traceparent"]) is not None
        assert "server-timing" in headers
        for phase in ("queue", "coalesce", "engine", "serialize", "total"):
            assert f"{phase};dur=" in headers["server-timing"]
        timings = body["timings"]
        assert set(timings) == {
            "queue_ms", "coalesce_ms", "engine_ms", "serialize_ms", "total_ms"
        }
        assert timings["total_ms"] > 0

    def test_client_trace_id_is_continued(self, client, carrier_keys):
        incoming = "00-" + "ab" * 16 + "-" + "12" * 8 + "-01"
        status, _, headers = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]},
            headers={"traceparent": incoming},
        )
        assert status == 200
        trace_id, span_id = tracing.parse_traceparent(headers["traceparent"])
        assert trace_id == "ab" * 16           # same trace
        assert span_id != "12" * 8             # the server's own span

    def test_malformed_traceparent_starts_a_fresh_trace(
        self, client, carrier_keys
    ):
        status, _, headers = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]},
            headers={"traceparent": "00-zzzz-not-a-header"},
        )
        assert status == 200
        parsed = tracing.parse_traceparent(headers["traceparent"])
        assert parsed is not None
        assert parsed[0] != "0" * 32

    def test_batch_response_is_traced_too(self, client, carrier_keys):
        status, body, headers = call(
            client, "POST", "/batch",
            {"requests": [{"carrier": key} for key in carrier_keys[:4]]},
        )
        assert status == 200
        assert "traceparent" in headers
        assert "timings" in body


class TestDebugTrace:
    def test_full_span_tree_no_orphans(self, client, carrier_keys):
        status, _, headers = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        trace_id = tracing.parse_traceparent(headers["traceparent"])[0]
        tree = fetch_tree(client, trace_id)
        assert tree["orphan_count"] == 0
        names = span_names(tree)
        for level in TRACE_LEVELS:
            assert level in names, f"missing {level} in {names}"
        # One root: the front.request span.
        assert [root["name"] for root in tree["roots"]] == ["front.request"]

    def test_remote_parent_marks_client_continued_trace(
        self, client, carrier_keys
    ):
        incoming = "00-" + "cd" * 16 + "-" + "34" * 8 + "-01"
        call(
            client, "POST", "/recommend", {"carrier": carrier_keys[1]},
            headers={"traceparent": incoming},
        )
        tree = fetch_tree(client, "cd" * 16)
        assert tree["orphan_count"] == 0
        roots = [root["name"] for root in tree["roots"]]
        assert roots == ["front.request"]
        assert tree["roots"][0]["attributes"]["remote_parent"] is True
        assert tree["roots"][0]["parent_id"] == "34" * 8

    def test_unknown_trace_404(self, client):
        status, body, _ = call(client, "GET", "/debug/trace/" + "9" * 32)
        assert status == 404
        assert body["error"] == "trace_not_found"

    def test_trace_continuity_across_hot_swap(
        self, client, traced_front, carrier_keys
    ):
        shard_set, _ = traced_front
        generation = shard_set.generation
        status, report, _ = call(client, "POST", "/admin/swap", {"jobs": 1})
        assert status == 200
        assert report["generation"] == generation + 1
        status, body, headers = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        assert body["generation"] == generation + 1
        trace_id = tracing.parse_traceparent(headers["traceparent"])[0]
        tree = fetch_tree(client, trace_id)
        assert tree["orphan_count"] == 0
        assert set(TRACE_LEVELS) <= set(span_names(tree))


class TestDebugFlight:
    def test_digests_capture_requests(self, client, carrier_keys):
        status, _, headers = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        trace_id = tracing.parse_traceparent(headers["traceparent"])[0]
        status, body, _ = call(client, "GET", "/debug/flight")
        assert status == 200
        assert body["in_ring"] >= 1
        digest = next(
            d for d in body["digests"] if d["trace_id"] == trace_id
        )
        assert digest["status"] == 200
        assert digest["market"]
        assert digest["shard"] in (0, 1)
        assert digest["latency_ms"] > 0
        assert digest["shed_reason"] is None

    def test_metrics_exposition_links_exemplars(self, client, carrier_keys):
        call(client, "POST", "/recommend", {"carrier": carrier_keys[0]})
        status, text, _ = call(client, "GET", "/metrics")
        assert status == 200
        assert "repro_front_request_seconds_bucket" in text
        assert ' # {trace_id="' in text


class TestShedDigests:
    def test_shed_requests_leave_digests_with_reason(
        self, fitted_engine, rulebook, carrier_keys, tmp_path
    ):
        """A storm against a tier sized for one request leaves 503
        digests naming the shed reason, alongside the 200s."""
        import threading

        obs_metrics.enable()
        tracing.configure([])
        recorder = flight.configure(
            capacity=256, dump_dir=str(tmp_path / "dumps")
        )
        shard_set = ShardSet(fitted_engine, rulebook, shards=1, max_queue=4)
        handle = serve_in_thread(
            shard_set,
            FrontConfig(
                shards=1,
                max_inflight=1,
                parameters=SINGULAR,
            ),
        )
        statuses = []
        lock = threading.Lock()

        def fire(key):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=30
            )
            try:
                status, _, _ = call(
                    conn, "POST", "/recommend", {"carrier": key}
                )
                with lock:
                    statuses.append(status)
            finally:
                conn.close()

        try:
            threads = [
                threading.Thread(target=fire, args=(carrier_keys[i % 4],))
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert 200 in statuses
            digests = [d.to_dict() for d in recorder.digests()]
            assert len(digests) == len(statuses)
            shed = [d for d in digests if d["status"] == 503]
            if 503 in statuses:
                assert shed
                assert all(
                    d["shed_reason"] in ("max_inflight", "shard_queue")
                    for d in shed
                )
                assert all(d["trace_id"] for d in shed)
        finally:
            handle.stop()
            shard_set.stop()
            flight.disable()
            tracing.disable()

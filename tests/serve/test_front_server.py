"""End-to-end tests of the asyncio HTTP front end.

A real server on an ephemeral port, exercised over ``http.client``:
routing, coalescing, structured 400s, 503 load shedding with retry
hints, batch ordering, admin hot-swap and the observability endpoints.
"""

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.core.recommendation import RecommendRequest
from repro.dataio.keys import carrier_key_to_str
from repro.obs import metrics as obs_metrics
from repro.serve.front import FrontConfig, ShardSet, serve_in_thread
from repro.serve.service import RecommendationService

from .conftest import SERVE_PARAMETERS

SINGULAR = tuple(n for n in SERVE_PARAMETERS if n != "hysA3Offset")


@pytest.fixture(scope="module")
def front(fitted_engine, rulebook):
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


@pytest.fixture()
def client(front):
    _, handle = front
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


def call(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw.decode("utf-8", "replace")
    return response.status, parsed, dict(response.getheaders())


class TestEndpoints:
    def test_healthz(self, client):
        status, body, _ = call(client, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["shards"] == 2

    def test_recommend_existing_carrier(self, client, carrier_keys):
        status, body, _ = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        assert set(body["values"]) == set(SINGULAR)
        assert body["shard"] in (0, 1)
        assert body["generation"] >= 0
        assert body["duration_ms"] >= 0

    def test_recommend_is_deterministic(self, client, carrier_keys):
        answers = [
            call(client, "POST", "/recommend", {"carrier": carrier_keys[1]})[1]
            for _ in range(3)
        ]
        assert all(a["values"] == answers[0]["values"] for a in answers)
        assert all(a["shard"] == answers[0]["shard"] for a in answers)

    def test_batch_preserves_request_order(self, client, carrier_keys):
        keys = carrier_keys[:6]
        status, body, _ = call(
            client, "POST", "/batch",
            {"requests": [{"carrier": key} for key in keys]},
        )
        assert status == 200
        assert len(body["results"]) == len(keys)
        singles = [
            call(client, "POST", "/recommend", {"carrier": key})[1]["values"]
            for key in keys
        ]
        assert [r["values"] for r in body["results"]] == singles

    def test_empty_batch(self, client):
        status, body, _ = call(client, "POST", "/batch", {"requests": []})
        assert status == 200
        assert body["results"] == []

    def test_stats_counts_serving(self, client, carrier_keys):
        call(client, "POST", "/recommend", {"carrier": carrier_keys[0]})
        status, body, _ = call(client, "GET", "/stats")
        assert status == 200
        assert body["served"] >= 1
        assert body["max_inflight"] == 64
        assert set(body["queue_depths"]) == {"0", "1"} or set(
            body["queue_depths"]
        ) == {0, 1}

    def test_metrics_exposition(self, client):
        status, text, headers = call(client, "GET", "/metrics")
        assert status == 200
        assert "text/plain" in headers.get("content-type", "")

    def test_no_digest_without_a_flight_recorder(
        self, client, carrier_keys, monkeypatch
    ):
        from repro.obs import flight

        def refuse(*args, **kwargs):
            raise AssertionError("built a digest with no recorder")

        assert flight.get_recorder() is None
        monkeypatch.setattr(flight, "RequestDigest", refuse)
        status, body, _ = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        assert set(body["values"]) == set(SINGULAR)

    def test_unknown_path_404(self, client):
        status, body, _ = call(client, "GET", "/nope")
        assert status == 404
        assert body["error"] == "not_found"

    def test_unsupported_method_405(self, client):
        status, body, _ = call(client, "PUT", "/recommend", {})
        assert status == 405


class TestStructured400s:
    def test_invalid_json_names_body(self, client):
        client.request(
            "POST", "/recommend", body=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        response = client.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert body["error"] == "invalid_request"
        assert body["field"] == "body"

    def test_missing_target_names_field(self, client):
        status, body, _ = call(client, "POST", "/recommend", {"local": True})
        assert status == 400
        assert body["error"] == "invalid_request"
        assert body["field"] == "request"
        assert "exactly one" in body["reason"]

    def test_malformed_carrier_names_field(self, client):
        status, body, _ = call(
            client, "POST", "/recommend", {"carrier": "1.2.3"}
        )
        assert status == 400
        assert body["field"] == "request.carrier"

    def test_batch_error_names_item(self, client, carrier_keys):
        status, body, _ = call(
            client, "POST", "/batch",
            {"requests": [{"carrier": carrier_keys[0]}, {"carrier": 9}]},
        )
        assert status == 400
        assert body["field"] == "requests[1].carrier"

    @pytest.mark.parametrize("length", ["abc", "1.5", "-5"])
    def test_malformed_content_length_is_a_400(self, front, length):
        """The body's extent is unknown, so the server answers 400 and
        closes the connection instead of dropping it unanswered."""
        _, handle = front
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /recommend HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}"
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        payload = json.loads(body)
        assert payload["error"] == "invalid_request"
        assert payload["field"] == "content-length"

    def test_unknown_parameter_is_a_500_not_a_hang(self, client, carrier_keys):
        status, body, _ = call(
            client, "POST", "/recommend",
            {"carrier": carrier_keys[0], "parameters": ["notAParameter"]},
        )
        assert status == 500
        assert body["error"] == "internal"


class TestAdminSwap:
    def test_swap_bumps_generation_and_keeps_answers(
        self, client, front, carrier_keys
    ):
        shard_set, _ = front
        before_status, before, _ = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert before_status == 200
        generation = shard_set.generation
        status, report, _ = call(client, "POST", "/admin/swap", {"jobs": 1})
        assert status == 200
        assert report["generation"] == generation + 1
        assert report["shards"] == 2
        assert report["warmed"] >= 1
        status, after, _ = call(
            client, "POST", "/recommend", {"carrier": carrier_keys[0]}
        )
        assert status == 200
        assert after["generation"] == generation + 1
        # Same snapshot refit: the answers must not change.
        assert after["values"] == before["values"]

    def test_a_swapped_shard_answers_as_the_new_generation(
        self, fitted_engine, rulebook, dataset
    ):
        """Mid-swap, a shard that took its sentinel answers with the
        generation it swapped to, while another shard still drains the
        old engine and the tier's counter has not moved."""
        shard_set = ShardSet(fitted_engine, rulebook, shards=2, warm=False)
        handle = serve_in_thread(
            shard_set,
            FrontConfig(shards=2, max_inflight=8, parameters=SINGULAR),
        )
        carrier = sorted(dataset.store.carriers())[0]
        serving = shard_set.shard_for(RecommendRequest(carrier_id=carrier))
        stalled_shard = next(s for s in shard_set.shards if s is not serving)
        old_service = serving.service
        gate, stalled = threading.Event(), threading.Event()

        class _Stall:
            def __iter__(self):
                stalled.set()
                gate.wait(10.0)
                return iter(())

        swapper = threading.Thread(
            target=shard_set.hot_swap,
            kwargs={"engine": fitted_engine, "warm": False},
        )
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            stalled_shard.submit_batch(_Stall(), lambda *_: None)
            assert stalled.wait(10.0)
            swapper.start()
            deadline = time.monotonic() + 10.0
            while serving.service is old_service:
                assert time.monotonic() < deadline, "the shard never swapped"
                time.sleep(0.005)
            payload = {"carrier": carrier_key_to_str(carrier)}
            status, body, _ = call(conn, "POST", "/recommend", payload)
            assert status == 200
            assert body["shard"] == serving.shard_id
            assert shard_set.generation == 0
            assert body["generation"] == 1
        finally:
            gate.set()
            swapper.join(timeout=30)
            conn.close()
            handle.stop()
            shard_set.stop()
        assert shard_set.generation == 1

    def test_swap_rejects_bad_jobs(self, client):
        status, body, _ = call(
            client, "POST", "/admin/swap", {"jobs": "many"}
        )
        assert status == 400
        assert body["field"] == "jobs"

    @pytest.mark.parametrize("jobs", [True, False], ids=["true", "false"])
    def test_swap_rejects_boolean_jobs(self, client, jobs):
        """JSON booleans are Python ints; ``false`` would read as 0,
        which means "all cores"."""
        status, body, _ = call(client, "POST", "/admin/swap", {"jobs": jobs})
        assert status == 400
        assert body["field"] == "jobs"

    def test_invalidate_endpoint(self, client, carrier_keys):
        call(client, "POST", "/recommend", {"carrier": carrier_keys[0]})
        status, body, _ = call(client, "POST", "/admin/invalidate", {})
        assert status == 200
        assert body["dropped"] >= 0


class TestLoadShedding:
    def test_overload_returns_structured_503(
        self, fitted_engine, rulebook, carrier_keys
    ):
        """A tier sized for one in-flight request sheds a concurrent
        storm with 503s that carry the retry hint; nothing hangs and the
        survivors are correct."""
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
                status, body, headers = call(
                    conn, "POST", "/recommend", {"carrier": key}
                )
                with lock:
                    statuses.append((status, body, headers))
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
            assert len(statuses) == 16
            codes = [status for status, _, _ in statuses]
            assert all(code in (200, 503) for code in codes)
            assert 200 in codes  # the tier kept serving
            for status, body, headers in statuses:
                if status == 503:
                    assert body["error"] == "overloaded"
                    assert body["retry_after_ms"] >= 1
                    assert "retry-after" in headers
        finally:
            handle.stop()
            shard_set.stop()

    def test_shard_queue_shed_frees_the_coalescer_slot(
        self, fitted_engine, rulebook, carrier_keys
    ):
        """A /recommend shed by a full shard queue answers 503 and frees
        the shard's coalescer slot, so the next request is served
        instead of waiting behind a batch that never ran."""
        shard_set = ShardSet(
            fitted_engine, rulebook, shards=1, max_queue=1, warm=False
        )
        handle = serve_in_thread(
            shard_set,
            FrontConfig(shards=1, max_inflight=8, parameters=SINGULAR),
        )
        shard = shard_set.shards[0]
        gate, stalled, drained = (threading.Event() for _ in range(3))

        class _Stall:
            def __iter__(self):
                stalled.set()
                gate.wait(10.0)
                return iter(())

        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            shard.submit_batch(_Stall(), lambda *_: None)
            assert stalled.wait(10.0)
            shard.submit_batch((), lambda *_: drained.set())  # queue full
            payload = {"carrier": carrier_keys[0]}
            status, body, _ = call(conn, "POST", "/recommend", payload)
            assert status == 503
            assert body["reason"] == "shard_queue"
            gate.set()
            assert drained.wait(10.0)
            status, body, _ = call(conn, "POST", "/recommend", payload)
            assert status == 200
            assert set(body["values"]) == set(SINGULAR)
        finally:
            gate.set()
            conn.close()
            handle.stop()
            shard_set.stop()


class TestBacklogCoalescing:
    def test_concurrent_clients_coalesce_without_a_window(
        self, fitted_engine, rulebook, dataset
    ):
        """12 clients on one shard: while a batch is served, the
        requests behind it form the next one, and every answer equals
        the engine's answer served directly."""
        carriers = sorted(dataset.store.carriers())[:24]
        oracle = RecommendationService(fitted_engine, rulebook)
        expected = {
            carrier_key_to_str(carrier_id): oracle.handle(
                RecommendRequest(carrier_id=carrier_id, parameters=SINGULAR)
            ).value_map()
            for carrier_id in carriers
        }
        keys = sorted(expected)
        answers = []
        lock = threading.Lock()
        previous_registry = obs_metrics.get_registry()
        registry = obs_metrics.MetricsRegistry()
        obs_metrics.set_registry(registry)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        shard_set = ShardSet(fitted_engine, rulebook, shards=1, max_queue=64)
        handle = serve_in_thread(
            shard_set,
            FrontConfig(shards=1, max_inflight=64, parameters=SINGULAR),
        )

        def client(offset):
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=30
            )
            try:
                for i in range(6):
                    key = keys[(offset + i) % len(keys)]
                    status, body, _ = call(
                        conn, "POST", "/recommend", {"carrier": key}
                    )
                    with lock:
                        answers.append((key, status, body))
            finally:
                conn.close()

        try:
            threads = [
                threading.Thread(target=client, args=(2 * i,))
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            handle.stop()
            shard_set.stop()
            obs_metrics.set_registry(previous_registry)
        assert len(answers) == 72
        for key, status, body in answers:
            assert status == 200, body
            assert body["values"] == expected[key]
        coalesced = registry.get("repro_front_coalesced_total").labels()
        assert coalesced.value > 0

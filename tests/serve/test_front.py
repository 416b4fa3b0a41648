"""Front-end building blocks: ring, admission, coalescer, shards.

Unit-level coverage of :mod:`repro.serve.front` — the HTTP surface has
its own end-to-end suite in ``test_front_server.py``.
"""

import asyncio
import queue
import threading

import pytest

from repro.core.recommendation import RecommendRequest
from repro.netmodel.identifiers import CarrierId, ENodeBId, MarketId
from repro.serve.front import (
    AdmissionController,
    Coalescer,
    HashRing,
    OverloadError,
    ShardSet,
    shard_key,
)

from .conftest import SERVE_PARAMETERS

SINGULAR = [n for n in SERVE_PARAMETERS if n != "hysA3Offset"]


def carrier(market: int, enodeb: int = 0, face: int = 0, slot: int = 0):
    return CarrierId(ENodeBId(MarketId(market), enodeb), face, slot)


class TestHashRing:
    def test_routing_is_deterministic(self):
        ring = HashRing(range(4))
        keys = [f"market:{i}" for i in range(50)]
        assert [ring.node_for(k) for k in keys] == [
            ring.node_for(k) for k in keys
        ]

    def test_every_node_owns_keys(self):
        ring = HashRing(range(4))
        distribution = ring.distribution([f"market:{i}" for i in range(200)])
        assert set(distribution) == {0, 1, 2, 3}
        assert all(count > 0 for count in distribution.values())

    def test_resize_remaps_a_minority_of_keys(self):
        keys = [f"market:{i}" for i in range(300)]
        before = HashRing(range(4))
        after = HashRing(range(5))
        moved = sum(
            1 for k in keys if before.node_for(k) != after.node_for(k)
        )
        # Consistent hashing: ~1/5 of keys move to the new node; a
        # plain modulo rehash would move ~4/5.
        assert moved < len(keys) / 2

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestShardKey:
    def test_existing_carrier_routes_by_market(self):
        request = RecommendRequest(carrier_id=carrier(market=7))
        assert shard_key(request) == "market:7"

    def test_launch_request_routes_by_market(self, dataset):
        enodeb = next(dataset.network.enodebs())
        template = next(enodeb.carriers())
        request = RecommendRequest(
            attributes=template.attributes, enodeb_id=enodeb.enodeb_id
        )
        assert shard_key(request) == f"market:{enodeb.enodeb_id.market.index}"

    def test_same_market_lands_on_same_shard(self):
        ring = HashRing(range(3))
        keys = {
            shard_key(RecommendRequest(carrier_id=carrier(2, enodeb=i)))
            for i in range(10)
        }
        assert keys == {"market:2"}
        assert len({ring.node_for(k) for k in keys}) == 1


class TestAdmission:
    def test_admit_until_ceiling_then_shed(self):
        admission = AdmissionController(max_inflight=3)
        for _ in range(3):
            admission.admit()
        with pytest.raises(OverloadError) as excinfo:
            admission.admit()
        error = excinfo.value
        assert error.reason == "max_inflight"
        assert error.limit == 3
        assert error.depth == 3
        assert error.retry_after_ms >= 1
        assert admission.inflight == 3

    def test_release_reopens_admission(self):
        admission = AdmissionController(max_inflight=1)
        admission.admit()
        admission.release(latency_s=0.002)
        admission.admit()  # must not raise
        assert admission.inflight == 1

    def test_weighted_admission_for_batches(self):
        admission = AdmissionController(max_inflight=10)
        admission.admit(weight=8)
        with pytest.raises(OverloadError):
            admission.admit(weight=3)
        admission.admit(weight=2)
        assert admission.inflight == 10

    def test_shed_queue_full_builds_structured_body(self):
        admission = AdmissionController(max_inflight=10)
        error = admission.shed_queue_full(shard=1, limit=4, depth=4)
        body = error.to_dict()
        assert body["error"] == "overloaded"
        assert body["reason"] == "shard_queue"
        assert body["shard"] == 1
        assert body["retry_after_ms"] >= 1

    def test_retry_hint_tracks_observed_latency(self):
        admission = AdmissionController(max_inflight=10)
        for _ in range(50):
            admission.admit()
            admission.release(latency_s=0.1)
        assert admission.retry_after_ms(backlog=100) > 1000


class TestCoalescer:
    """The backlog rule, driven by a fake flush: no timers, no sleeps.

    A flushed batch stays outstanding until the test calls ``release``
    (the server does so when the shard answers, fails or sheds it)."""

    def _run(self, scenario):
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(
                asyncio.wait_for(scenario(), timeout=10)
            )
        finally:
            loop.close()

    @staticmethod
    def _requests(flushed):
        return [[entry.request for entry in batch] for batch in flushed]

    def test_idle_shard_flushes_on_submit(self):
        flushed = []

        async def scenario():
            coalescer = Coalescer(flush=flushed.append, max_batch=8)
            coalescer.submit("a")
            assert self._requests(flushed) == [["a"]]
            assert coalescer.pending == 0

        self._run(scenario)

    def test_submits_stay_pending_while_a_batch_is_outstanding(self):
        flushed = []

        async def scenario():
            coalescer = Coalescer(flush=flushed.append, max_batch=8)
            coalescer.submit("a")
            coalescer.submit("b")
            coalescer.submit("c")
            assert self._requests(flushed) == [["a"]]
            assert coalescer.pending == 2

        self._run(scenario)

    def test_release_flushes_the_backlog_as_one_batch(self):
        flushed = []

        async def scenario():
            coalescer = Coalescer(flush=flushed.append, max_batch=8)
            for request in "abc":
                coalescer.submit(request)
            assert coalescer.release() == 2
            assert self._requests(flushed) == [["a"], ["b", "c"]]
            assert coalescer.pending == 0
            # Nothing waits behind the second batch: its release leaves
            # the shard idle, and the next submit flushes at once.
            assert coalescer.release() == 0
            coalescer.submit("d")
            assert self._requests(flushed)[-1] == ["d"]

        self._run(scenario)

    def test_flushes_on_max_batch(self):
        flushed = []

        async def scenario():
            coalescer = Coalescer(flush=flushed.append, max_batch=3)
            for request in range(8):
                coalescer.submit(request)
            assert coalescer.pending == 7
            while coalescer.release():
                pass
            assert self._requests(flushed) == [[0], [1, 2, 3], [4, 5, 6], [7]]

        self._run(scenario)

    def test_shed_flush_frees_the_slot(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            shed = []

            def flush(batch):
                # The first flush is refused the way a full shard queue
                # refuses it: fail the batch, release on the next turn.
                if not shed:
                    shed.append(batch)
                    for entry in batch:
                        entry.future.set_exception(RuntimeError("shed"))
                    loop.call_soon(coalescer.release)
                    return
                for entry in batch:
                    entry.future.set_result(entry.request)

            coalescer = Coalescer(flush=flush, max_batch=8)
            refused = coalescer.submit("a")
            with pytest.raises(RuntimeError, match="shed"):
                await asyncio.wait_for(refused, timeout=5)
            served = coalescer.submit("b")
            assert await asyncio.wait_for(served, timeout=5) == "b"

        self._run(scenario)

    def test_close_fails_stranded_futures(self):
        async def scenario():
            coalescer = Coalescer(flush=lambda batch: None, max_batch=100)
            coalescer.submit(object())  # outstanding, never released
            future = coalescer.submit(object())
            coalescer.close()
            with pytest.raises(RuntimeError, match="coalescer closed"):
                await asyncio.wait_for(future, timeout=5)

        self._run(scenario)


@pytest.fixture(scope="module")
def shard_set(fitted_engine, rulebook):
    shard_set = ShardSet(fitted_engine, rulebook, shards=2, max_queue=8)
    yield shard_set
    shard_set.stop()


def _submit_and_wait(shard, requests, timeout=30.0):
    done = threading.Event()
    box = {}

    def on_done(results, error):
        box["results"] = results
        box["error"] = error
        done.set()

    shard.submit_batch(requests, on_done)
    assert done.wait(timeout)
    if box["error"] is not None:
        raise box["error"]
    return box["results"]


class TestShardSet:
    def _request(self, dataset):
        enodeb = next(dataset.network.enodebs())
        template = next(enodeb.carriers())
        return RecommendRequest(
            attributes=template.attributes,
            enodeb_id=enodeb.enodeb_id,
            parameters=tuple(SINGULAR),
        )

    def test_batches_serve_through_worker_threads(self, shard_set, dataset):
        request = self._request(dataset)
        shard = shard_set.shard_for(request)
        results = _submit_and_wait(shard, [request, request])
        assert len(results) == 2
        assert results[0].recommendation.value_map() == (
            results[1].recommendation.value_map()
        )
        assert shard.served >= 2

    def test_routing_is_stable(self, shard_set, dataset):
        request = self._request(dataset)
        shard = shard_set.shard_for(request)
        assert all(
            shard_set.shard_for(request) is shard for _ in range(10)
        )

    def test_hot_swap_preserves_answers_and_bumps_generation(
        self, shard_set, dataset
    ):
        request = self._request(dataset)
        shard = shard_set.shard_for(request)
        before = _submit_and_wait(shard, [request])[0]
        generation = shard_set.generation
        report = shard_set.hot_swap()
        assert report.generation == generation + 1
        assert shard_set.generation == generation + 1
        assert report.shards == 2
        assert report.warmed >= len(SERVE_PARAMETERS) - 1
        after = _submit_and_wait(shard_set.shard_for(request), [request])[0]
        # Same snapshot, same answer — the swap is invisible to clients.
        assert after.recommendation.value_map() == (
            before.recommendation.value_map()
        )

    def test_queue_bound_raises_queue_full(self, fitted_engine, rulebook):
        tiny = ShardSet(fitted_engine, rulebook, shards=1, max_queue=1, warm=False)
        try:
            shard = tiny.shards[0]
            # Stall the worker with a slow batch, then overfill the queue.
            gate = threading.Event()

            class _Stall:
                def __init__(self):
                    self.requests = ()

                def __iter__(self):
                    gate.wait(5.0)
                    return iter(())

            shard.submit_batch(_Stall(), lambda *_: None)
            try:
                with pytest.raises(queue.Full):
                    for _ in range(4):
                        shard.submit_batch((), lambda *_: None)
            finally:
                gate.set()
        finally:
            tiny.stop()

    def test_invalidate_fans_to_every_shard(self, shard_set, dataset):
        request = self._request(dataset)
        for service in shard_set.services:
            service.handle(request)
        assert all(s.cache_len() > 0 for s in shard_set.services)
        shard_set.invalidate()
        assert all(s.cache_len() == 0 for s in shard_set.services)

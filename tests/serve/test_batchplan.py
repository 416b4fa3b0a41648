"""Batch serving's contract: a batch answers like its requests one by one.

Two services share an engine but keep independent caches and metrics;
one serves every batch through ``handle_batch``, the other answers the
same requests one at a time through ``handle``.  Everything observable
— values, scopes, supports, provenance (cache dispositions, fallback
reasons, vote distributions), leave-one-out exclusions, generations,
the cache/fallback/vote metric counters and the cache size — must come
out equal.  Only ``duration_s`` (wall-clock) is exempt.

The concurrency half hammers batch serving against mid-batch snapshot
refreshes and shard-set hot swaps: every response must carry the
generation of the engine that actually voted, uniform within a batch.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.recommendation import RecommendRequest
from repro.serve import RecommendationService
from repro.serve.service import _LRUCache, _StripedCache

from .conftest import SERVE_PARAMETERS

SINGULAR = tuple(n for n in SERVE_PARAMETERS if n != "hysA3Offset")

#: Metric counters that must match between the two paths (latency
#: histograms are exempt).
COMPARED_METRICS = (
    "requests",
    "parameters_served",
    "cache_hits",
    "cache_misses",
    "fallbacks",
    "votes",
)


def _carriers(dataset, count):
    out = []
    for carrier in dataset.network.carriers():
        out.append(carrier)
        if len(out) == count:
            break
    return out


def _assert_results_equal(batched, single):
    assert len(batched) == len(single)
    for left, right in zip(batched, single):
        assert left.request == right.request
        assert left.recommendation == right.recommendation
        assert left.source == right.source
        assert left.exclude == right.exclude
        assert left.generation == right.generation
        if right.explain is None:
            assert left.explain is None
        else:
            assert left.explain is not None
            assert left.explain.target == right.explain.target
            assert set(left.explain.parameters) == set(
                right.explain.parameters
            )
            for name, expected in right.explain.parameters.items():
                got = left.explain.parameters[name]
                assert got.cache == expected.cache, name
                assert got.fallback_reason == expected.fallback_reason, name
                assert got.votes == expected.votes, name
                assert got.scope == expected.scope, name


def _assert_paths_equal(engine, rulebook, batches):
    """Serve the same batch sequence as batches and one request at a
    time, and compare."""
    batch_service = RecommendationService(engine, rulebook)
    single_service = RecommendationService(engine, rulebook)
    for batch in batches:
        batched = batch_service.handle_batch(batch)
        single = [single_service.handle(request) for request in batch]
        _assert_results_equal(batched, single)
    batch_metrics = batch_service.metrics.as_dict()
    single_metrics = single_service.metrics.as_dict()
    for key in COMPARED_METRICS:
        assert batch_metrics[key] == single_metrics[key], key
    assert batch_service.cache_len() == single_service.cache_len()


class TestEquivalence:
    def test_duplicate_heavy_batch(self, fitted_engine, rulebook, dataset):
        carriers = _carriers(dataset, 8)
        batch = [
            RecommendRequest(
                carrier_id=carriers[i % len(carriers)].carrier_id,
                parameters=SINGULAR,
            )
            for i in range(64)
        ]
        _assert_paths_equal(fitted_engine, rulebook, [batch])

    def test_explain_and_loo_mix(self, fitted_engine, rulebook, dataset):
        carriers = _carriers(dataset, 12)
        batch = [
            RecommendRequest(
                carrier_id=carrier.carrier_id,
                parameters=SINGULAR,
                explain=(i % 3 == 0),
                leave_one_out=(i % 2 == 0),
                local=(i % 4 != 0),
            )
            for i, carrier in enumerate(carriers * 3)
        ]
        _assert_paths_equal(fitted_engine, rulebook, [batch])

    def test_mixed_market_new_carriers(self, fitted_engine, rulebook, dataset):
        batch = []
        for enodeb in dataset.network.enodebs():
            for template in enodeb.carriers():
                batch.append(
                    RecommendRequest(
                        attributes=template.attributes,
                        enodeb_id=enodeb.enodeb_id,
                        parameters=SINGULAR,
                    )
                )
            if len(batch) >= 24:
                break
        # Duplicate a few to exercise intra-batch cache interplay.
        batch = batch + batch[:7]
        _assert_paths_equal(fitted_engine, rulebook, [batch])

    def test_unfitted_and_enumeration_parameters(
        self, fitted_engine, rulebook, dataset
    ):
        """Rule-book entries (cold-start + enumerations) carry the same
        fallback reasons in a batch as one at a time."""
        carriers = _carriers(dataset, 6)
        batch = [
            RecommendRequest(
                carrier_id=carrier.carrier_id,
                parameters=None,  # full default set incl. enumerations
                explain=(i % 2 == 0),
            )
            for i, carrier in enumerate(carriers * 2)
        ]
        _assert_paths_equal(fitted_engine, rulebook, [batch])

    def test_sequential_batches_share_cache_dispositions(
        self, fitted_engine, rulebook, dataset
    ):
        """Batch 2 repeats batch 1: both paths must report all-hit."""
        carriers = _carriers(dataset, 10)
        batch = [
            RecommendRequest(
                carrier_id=carrier.carrier_id, parameters=SINGULAR
            )
            for carrier in carriers
        ]
        _assert_paths_equal(fitted_engine, rulebook, [batch, list(batch)])

    def test_explain_after_plain_recomputes_votes(
        self, fitted_engine, rulebook, dataset
    ):
        """A vote-less cached entry re-votes with capture on when a
        later explain request hits it — identically on both paths."""
        carrier = _carriers(dataset, 1)[0]
        plain = RecommendRequest(
            carrier_id=carrier.carrier_id, parameters=SINGULAR
        )
        explained = RecommendRequest(
            carrier_id=carrier.carrier_id, parameters=SINGULAR, explain=True
        )
        _assert_paths_equal(
            fitted_engine, rulebook, [[plain, plain], [explained, plain]]
        )

    @settings(max_examples=25, deadline=None)
    @given(spec=st.data())
    def test_random_batches(self, fitted_engine, rulebook, dataset, spec):
        carriers = _carriers(dataset, 16)
        size = spec.draw(st.integers(min_value=2, max_value=20))
        batch = []
        for _ in range(size):
            index = spec.draw(
                st.integers(min_value=0, max_value=len(carriers) - 1)
            )
            batch.append(
                RecommendRequest(
                    carrier_id=carriers[index].carrier_id,
                    parameters=SINGULAR,
                    explain=spec.draw(st.booleans()),
                    leave_one_out=spec.draw(st.booleans()),
                    local=spec.draw(st.booleans()),
                )
            )
        _assert_paths_equal(fitted_engine, rulebook, [batch])


class TestStripedCache:
    def _key(self, parameter, index):
        return (parameter, ("cell", index), None, None, 0)

    def test_drop_parameter_uses_index(self):
        cache = _LRUCache(64)
        for i in range(10):
            cache.put(self._key("pMax", i), f"p{i}")
            cache.put(self._key("qHyst", i), f"q{i}")
        assert cache.drop_parameter("pMax") == 10
        assert len(cache) == 10
        assert cache.drop_parameter("pMax") == 0
        assert cache.get(self._key("qHyst", 3)) == "q3"

    def test_eviction_keeps_index_consistent(self):
        cache = _LRUCache(4)
        for i in range(10):
            cache.put(self._key("pMax", i), i)
        assert len(cache) == 4
        # Evicted keys must have left the index: dropping the parameter
        # reports only the surviving entries.
        assert cache.drop_parameter("pMax") == 4
        assert len(cache) == 0
        assert cache._by_parameter == {}

    def test_striped_operations(self):
        # Capacity is partitioned per stripe, so an uneven hash spread
        # may evict before the nominal capacity fills — the accounting
        # just has to stay self-consistent across the stripes.
        cache = _StripedCache(64, stripes=8)
        for i in range(32):
            cache.put(self._key("pMax", i), i)
            cache.put(self._key("qHyst", i), i)
        total = len(cache)
        assert 0 < total <= 64
        assert cache.get(self._key("pMax", 31)) == 31  # most recent put
        dropped = cache.drop_parameter("pMax")
        assert 0 < dropped <= 32
        assert len(cache) == total - dropped
        assert cache.clear() == total - dropped
        assert len(cache) == 0

    def test_tiny_capacity_clamps_stripes(self):
        cache = _StripedCache(2, stripes=8)
        cache.put(("a", 1), 1)
        assert cache.get(("a", 1)) == 1


class TestGenerationConsistency:
    """Batch serving against mid-batch snapshot refresh / hot swap."""

    def _requests(self, dataset, count=24):
        return [
            RecommendRequest(
                carrier_id=carrier.carrier_id, parameters=SINGULAR
            )
            for carrier in _carriers(dataset, count)
        ]

    def test_refresh_hammer_generations_valid_and_uniform(
        self, fitted_engine, rulebook, dataset
    ):
        service = RecommendationService(fitted_engine, rulebook)
        requests = self._requests(dataset)
        baseline = {
            r.request.carrier_id: r.recommendation.value_map()
            for r in service.handle_batch(requests)
        }
        stop = threading.Event()
        chaos_errors = []

        def refresher():
            while not stop.is_set():
                try:
                    service.refresh_snapshot(fitted_engine)
                except Exception as error:  # noqa: BLE001
                    chaos_errors.append(error)

        chaos = threading.Thread(target=refresher, daemon=True)
        chaos.start()
        rng = random.Random(20210814)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                def storm(_):
                    batches = []
                    for _ in range(12):
                        batch = rng.sample(requests, 8)
                        batches.append(service.handle_batch(batch))
                    return batches

                for worker_batches in pool.map(storm, range(4)):
                    for results in worker_batches:
                        generations = {r.generation for r in results}
                        # One batch = one immutable engine state.
                        assert len(generations) == 1
                        assert results[0].generation <= service.generation
                        for result in results:
                            assert (
                                result.recommendation.value_map()
                                == baseline[result.request.carrier_id]
                            )
        finally:
            stop.set()
            chaos.join(timeout=5)
        assert not chaos_errors

    def test_shard_hot_swap_mid_batch(self, fitted_engine, rulebook, dataset):
        from repro.serve.front import ShardSet

        shard_set = ShardSet(
            fitted_engine, rulebook, shards=2, warm=False
        )
        try:
            requests = self._requests(dataset, count=16)
            oracle = RecommendationService(fitted_engine, rulebook)
            baseline = {
                r.request.carrier_id: r.recommendation.value_map()
                for r in oracle.handle_batch(requests)
            }
            done = []
            errors = []
            events = []

            def submit(batch):
                event = threading.Event()

                def on_done(results, error):
                    if error is not None:
                        errors.append(error)
                    else:
                        done.append(results)
                    event.set()

                shard_set.shard_for(batch[0]).submit_batch(batch, on_done)
                events.append(event)

            swapper = threading.Thread(
                target=lambda: shard_set.hot_swap(
                    engine=fitted_engine, warm=False
                ),
                daemon=True,
            )
            for index in range(10):
                submit(requests[index % 8 : index % 8 + 8])
                if index == 4:
                    swapper.start()
            swapper.join(timeout=30)
            for event in events:
                assert event.wait(timeout=30)
            assert not errors
            assert len(done) == 10
            for results in done:
                generations = {r.generation for r in results}
                assert len(generations) == 1  # no mid-batch mixing
                for result in results:
                    assert (
                        result.recommendation.value_map()
                        == baseline[result.request.carrier_id]
                    )
        finally:
            for shard in shard_set.shards:
                shard.stop()


class TestTracedBatch:
    def test_per_request_spans_land_in_their_traces(
        self, fitted_engine, rulebook, dataset
    ):
        from repro.obs import tracing
        from repro.obs.records import RecordSink

        sink = RecordSink(capacity=256)
        tracing.configure([sink])
        try:
            service = RecommendationService(fitted_engine, rulebook)
            requests = self._batch(dataset)
            traces = [
                (f"{i + 1:032x}", f"{i + 1:016x}")
                for i in range(len(requests))
            ]
            results = service.handle_batch(
                requests, traces=traces, shard=7
            )
            assert len(results) == len(requests)
            spans = sink.records()
            by_name = {}
            for span in spans:
                by_name.setdefault(span.name, []).append(span)
            shard_spans = by_name["shard.handle"]
            assert len(shard_spans) == len(requests)
            # Each shard.handle is rooted in its own request's trace.
            assert {s.trace_id for s in shard_spans} == {
                trace_id for trace_id, _ in traces
            }
            assert len(by_name["service.handle"]) == len(requests)
        finally:
            tracing.disable()

    def _batch(self, dataset):
        return [
            RecommendRequest(
                carrier_id=carrier.carrier_id, parameters=SINGULAR
            )
            for carrier in _carriers(dataset, 4)
        ]

"""Concurrency hammer: serving vs invalidation vs hot swap.

The serving layer's thread-safety claims, tested the unpleasant way —
a thread pool fires ``handle()`` traffic while other threads
continuously ``invalidate()``, swap engines under the service and
hot-swap the tier.  The invariants:

* every request completes (no deadlock, no exception),
* every answer equals the single-threaded baseline — cache churn and
  engine swaps must never surface a wrong or partial result,
* cache and generation bookkeeping stay consistent afterwards.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.recommendation import RecommendRequest
from repro.serve import RecommendationService
from repro.serve.front import ShardSet

from .conftest import SERVE_PARAMETERS

SINGULAR = tuple(n for n in SERVE_PARAMETERS if n != "hysA3Offset")


@pytest.fixture(scope="module")
def hammer_requests(dataset):
    requests = []
    for enodeb in dataset.network.enodebs():
        for template in enodeb.carriers():
            requests.append(
                RecommendRequest(
                    carrier_id=template.carrier_id, parameters=SINGULAR
                )
            )
            if len(requests) == 24:
                return requests
    return requests


@pytest.fixture(scope="module")
def baseline(fitted_engine, rulebook, hammer_requests):
    service = RecommendationService(fitted_engine, rulebook)
    return [
        service.handle(request).recommendation.value_map()
        for request in hammer_requests
    ]


class TestServiceHammer:
    def test_handle_vs_invalidate_and_notify(
        self, fitted_engine, rulebook, hammer_requests, baseline
    ):
        service = RecommendationService(fitted_engine, rulebook)
        stop = threading.Event()
        chaos_errors = []

        def chaos():
            rng = random.Random(1234)
            while not stop.is_set():
                try:
                    action = rng.random()
                    if action < 0.4:
                        service.invalidate()
                    elif action < 0.8:
                        service.invalidate(rng.choice(SINGULAR))
                    else:
                        service.refresh_snapshot(fitted_engine)
                except BaseException as exc:  # noqa: BLE001
                    chaos_errors.append(exc)
                    return

        def serve(index):
            request = hammer_requests[index % len(hammer_requests)]
            return service.handle(request).recommendation.value_map()

        chaos_threads = [
            threading.Thread(target=chaos, daemon=True) for _ in range(2)
        ]
        for thread in chaos_threads:
            thread.start()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(serve, range(200)))
        finally:
            stop.set()
            for thread in chaos_threads:
                thread.join(timeout=10)

        assert not chaos_errors
        for index, answer in enumerate(answers):
            assert answer == baseline[index % len(baseline)]


class TestShardSetHammer:
    def test_handle_vs_hot_swap(
        self, fitted_engine, rulebook, hammer_requests, baseline
    ):
        """Traffic through the shard workers while hot swaps and
        invalidations land mid-flight: zero dropped, zero incorrect."""
        shard_set = ShardSet(fitted_engine, rulebook, shards=2, max_queue=64)
        try:
            swaps_done = []

            def swapper():
                for _ in range(2):
                    report = shard_set.hot_swap()
                    swaps_done.append(report.generation)
                    shard_set.invalidate()

            def serve(index):
                request = hammer_requests[index % len(hammer_requests)]
                done = threading.Event()
                box = {}

                def on_done(results, error):
                    box["results"] = results
                    box["error"] = error
                    done.set()

                shard_set.shard_for(request).submit_batch([request], on_done)
                assert done.wait(60), "request was dropped"
                if box["error"] is not None:
                    raise box["error"]
                return box["results"][0].recommendation.value_map()

            swap_thread = threading.Thread(target=swapper, daemon=True)
            swap_thread.start()
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(serve, range(120)))
            swap_thread.join(timeout=120)

            assert len(swaps_done) == 2
            assert shard_set.generation >= 2
            for index, answer in enumerate(answers):
                assert answer == baseline[index % len(baseline)]
        finally:
            shard_set.stop()

"""Benchmark gate: batch serving on the lock-free read path.

Two gates and a micro-benchmark, all recorded in
``benchmarks/results/BENCH_batch_serve.json`` with the host's core
count, Python version, commit and workload seed:

1. **Concurrent reads** — 4 threads hammering a warm cache against the
   lock-free engine reference + lock-striped cache.  The throughput
   floor is core-aware: on a multi-core box striping must scale (≥2x at
   4+ cores, ≥1.2x at 2–3); on a 1-core box the GIL serializes
   everything and the gate only requires that striping not *collapse*
   under contention (≥0.6x of single-thread).
2. **Hot-swap storm** — batches served concurrently with continuous
   ``refresh_snapshot`` calls must drop nothing, answer everything
   identically to a quiescent oracle, and stamp every batch with one
   uniform generation.

Plus the micro-benchmark: ``_LRUCache.drop_parameter`` must cost
O(dropped), not O(capacity) — dropping a 20-entry parameter from a
~20K-entry cache must beat a full-capacity scan by ≥10x.

Environment knobs:

* ``REPRO_BATCH_SCALE``   — four-market workload scale (default 0.01)
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config.rulebook import RuleBook
from repro.core import AuricEngine
from repro.core.recommendation import RecommendRequest
from repro.datagen import four_markets_workload
from repro.rng import DEFAULT_SEED
from repro.serve import RecommendationService
from repro.serve.service import _LRUCache

SCALE = float(os.environ.get("REPRO_BATCH_SCALE", "0.01"))
PARAMETERS = ("pMax", "inactivityTimer")


@pytest.fixture(scope="module")
def fitted():
    dataset = four_markets_workload(scale=SCALE)
    engine = AuricEngine(dataset.network, dataset.store).fit(list(PARAMETERS))
    rulebook = RuleBook(dataset.store.catalog)
    carriers = list(dataset.network.carriers())
    return engine, rulebook, carriers


def _batch(carriers, requests, distinct, local=False):
    return [
        RecommendRequest(
            carrier_id=carriers[i % distinct].carrier_id,
            parameters=PARAMETERS,
            local=local,
        )
        for i in range(requests)
    ]


def test_batch_serve_gates(fitted, results_dir, run_environment):
    engine, rulebook, carriers = fitted
    record = {
        **run_environment,
        "scale": SCALE,
        "seed": DEFAULT_SEED,
        "parameters": PARAMETERS,
    }

    # -- gate 1: concurrent warm reads (core-aware) ------------------------
    service = RecommendationService(engine, rulebook)
    warm = _batch(carriers, requests=64, distinct=16)
    service.handle_batch(warm)  # populate the cache: pure read path below

    def reads(iterations):
        for _ in range(iterations):
            service.handle_batch(warm)

    iterations = 40
    reads(5)
    started = time.perf_counter()
    reads(iterations)
    single_s = time.perf_counter() - started
    single_rps = iterations * len(warm) / single_s

    threads = 4
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda _: reads(iterations), range(threads)))
    multi_s = time.perf_counter() - started
    multi_rps = threads * iterations * len(warm) / multi_s

    cores = os.cpu_count() or 1
    # Striping can only scale with real parallelism: the GIL serializes
    # pure-Python reads on a 1-core box, so the single-core floor only
    # guards against lock-convoy collapse.
    floor = 2.0 if cores >= 4 else (1.2 if cores >= 2 else 0.6)
    concurrency_ratio = multi_rps / single_rps
    record["concurrent_reads"] = {
        "cores": cores,
        "threads": threads,
        "single_thread_rps": single_rps,
        "four_thread_rps": multi_rps,
        "ratio": concurrency_ratio,
        "floor": floor,
    }

    # -- gate 2: hot-swap storm --------------------------------------------
    storm_service = RecommendationService(engine, rulebook)
    storm_batch = _batch(carriers, requests=32, distinct=32)
    oracle = {
        r.request.carrier_id: r.recommendation.value_map()
        for r in RecommendationService(engine, rulebook).handle_batch(
            storm_batch
        )
    }
    stop = threading.Event()
    swaps = []

    def swapper():
        while not stop.is_set():
            swaps.append(storm_service.refresh_snapshot(engine))

    chaos = threading.Thread(target=swapper, daemon=True)
    chaos.start()
    answered = 0
    incorrect = 0
    mixed_generations = 0
    try:
        def storm(_):
            nonlocal answered, incorrect, mixed_generations
            for _ in range(25):
                results = storm_service.handle_batch(storm_batch)
                answered += len(results)
                if len({r.generation for r in results}) != 1:
                    mixed_generations += 1
                for result in results:
                    expected = oracle[result.request.carrier_id]
                    if result.recommendation.value_map() != expected:
                        incorrect += 1

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(storm, range(4)))
    finally:
        stop.set()
        chaos.join(timeout=5)
    expected_answers = 4 * 25 * len(storm_batch)
    record["hot_swap_storm"] = {
        "expected": expected_answers,
        "answered": answered,
        "dropped": expected_answers - answered,
        "incorrect": incorrect,
        "mixed_generation_batches": mixed_generations,
        "swaps": len(swaps),
    }

    # -- micro-benchmark: drop_parameter is O(dropped) ---------------------
    bulk, tiny = 20_000, 20

    def build_cache():
        cache = _LRUCache(bulk + tiny)
        for i in range(bulk):
            cache.put(("bulk", ("cell", i), None, None, 0), i)
        for i in range(tiny):
            cache.put(("tiny", ("cell", i), None, None, 0), i)
        return cache

    drop_best = float("inf")
    scan_best = float("inf")
    for _ in range(5):
        cache = build_cache()
        started = time.perf_counter()
        dropped = cache.drop_parameter("tiny")
        drop_best = min(drop_best, time.perf_counter() - started)
        assert dropped == tiny
        # The pre-index implementation's cost: one pass over every key.
        started = time.perf_counter()
        matches = sum(1 for key in list(cache._data) if key[0] == "tiny")
        scan_best = min(scan_best, time.perf_counter() - started)
        assert matches == 0
    drop_ratio = scan_best / drop_best if drop_best else float("inf")
    record["drop_parameter"] = {
        "capacity": bulk + tiny,
        "dropped": tiny,
        "indexed_drop_us": drop_best * 1e6,
        "full_scan_us": scan_best * 1e6,
        "scan_over_drop": drop_ratio,
    }

    path = results_dir / "BENCH_batch_serve.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))

    assert concurrency_ratio >= floor, record["concurrent_reads"]
    storm_stats = record["hot_swap_storm"]
    assert storm_stats["dropped"] == 0, storm_stats
    assert storm_stats["incorrect"] == 0, storm_stats
    assert storm_stats["mixed_generation_batches"] == 0, storm_stats
    assert storm_stats["swaps"] > 0, storm_stats
    assert drop_ratio >= 10.0, record["drop_parameter"]

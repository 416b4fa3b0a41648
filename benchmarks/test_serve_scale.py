"""Benchmark: sustained load against the sharded serving front end.

The gate of the :mod:`repro.serve.front` tier — a real HTTP server on
an ephemeral port under a closed-loop launch storm, with one
zero-downtime hot swap fired mid-run.  Every answer is audited against
the same engine served directly, so the run fails if backpressure ever
drops a request or the swap surfaces a wrong, stale or half-swapped
value.  The observed throughput, latency percentiles, shed/retry
counts and swap telemetry land in
``benchmarks/results/BENCH_serve_scale.json``.

Environment knobs:

* ``REPRO_SERVE_SCALE``       — four-market workload scale (default 0.01)
* ``REPRO_SERVE_REQUESTS``    — storm size (default 600)
* ``REPRO_SERVE_CONNECTIONS`` — concurrent closed-loop clients (default 6)
* ``REPRO_SERVE_SHARDS``      — engine shards (default 2)
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config.rulebook import RuleBook
from repro.core import AuricEngine
from repro.core.recommendation import RecommendRequest
from repro.dataio.keys import carrier_key_to_str
from repro.datagen import four_markets_workload
from repro.rng import DEFAULT_SEED
from repro.serve import RecommendationService
from repro.serve.front import (
    FrontConfig,
    ShardSet,
    StormProfile,
    run_storm,
    serve_in_thread,
)

SCALE = float(os.environ.get("REPRO_SERVE_SCALE", "0.01"))
REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", "600"))
CONNECTIONS = int(os.environ.get("REPRO_SERVE_CONNECTIONS", "6"))
SHARDS = int(os.environ.get("REPRO_SERVE_SHARDS", "2"))
PARAMETERS = ("pMax", "inactivityTimer")


@pytest.fixture(scope="module")
def serve_dataset():
    return four_markets_workload(scale=SCALE)


def test_storm_with_midrun_hot_swap(
    serve_dataset, results_dir, run_environment
):
    dataset = serve_dataset
    engine = AuricEngine(dataset.network, dataset.store).fit(list(PARAMETERS))
    rulebook = RuleBook(dataset.store.catalog)

    # The audit oracle: the same engine, served directly and serially.
    oracle = RecommendationService(engine, rulebook)
    carriers = sorted(dataset.store.carriers())[: CONNECTIONS * 8]
    payloads = [{"carrier": carrier_key_to_str(c)} for c in carriers]
    expected = []
    for carrier_id in carriers:
        result = oracle.handle(
            RecommendRequest(carrier_id=carrier_id, parameters=PARAMETERS)
        )
        expected.append(
            {
                name: rec.value
                for name, rec in result.recommendation.recommendations.items()
            }
        )

    shard_set = ShardSet(engine, rulebook, shards=SHARDS)
    handle = serve_in_thread(
        shard_set,
        FrontConfig(
            shards=SHARDS,
            max_inflight=max(CONNECTIONS * 4, 64),
            parameters=PARAMETERS,
        ),
    )
    try:
        profile = StormProfile(
            requests=REQUESTS,
            connections=CONNECTIONS,
            swap_at=0.5,
        )
        report = run_storm(
            "127.0.0.1", handle.port, payloads, profile, expected
        )
    finally:
        handle.stop()
        shard_set.stop()

    # The acceptance gate: sustained load with a mid-run hot swap,
    # zero dropped and zero incorrect responses.  The storm sustains
    # past the nominal count until the swap lands, so sent >= REQUESTS.
    assert report.sent >= REQUESTS
    assert report.dropped == 0, f"{report.dropped} requests dropped"
    assert report.incorrect == 0, f"{report.incorrect} incorrect answers"
    assert report.error_rate == 0.0
    assert report.ok == report.sent
    assert report.swap is not None and "error" not in report.swap
    # Both generations answered: the swap genuinely landed mid-storm.
    assert set(report.generations) == {"0", "1"}, report.generations
    assert report.rps > 0
    assert report.percentile_ms(0.99) >= report.percentile_ms(0.50) > 0

    document = {
        **run_environment,
        "scale": SCALE,
        "seed": DEFAULT_SEED,
        "requests": REQUESTS,
        "connections": CONNECTIONS,
        "shards": SHARDS,
        "parameters": list(PARAMETERS),
        "distinct_targets": len(payloads),
        "report": report.to_dict(),
        "invariant": (
            "zero dropped and zero incorrect responses across a "
            "mid-run hot swap"
        ),
    }
    path = results_dir / "BENCH_serve_scale.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\n{json.dumps(document, indent=2)}")

"""Benchmark gate: tracing + flight recorder overhead on the front end.

The observability tentpole promises "always-on, low overhead": every
request minting spans, stamping timings and appending a flight digest
must not move serving latency materially.  This gate runs the same
closed-loop storm against two identically configured front ends — one
with tracing and the flight recorder off, one with both on — in
interleaved rounds (so thermal/contention drift hits both modes), and
asserts the median p50 with observability on stays within the allowed
envelope of the baseline.  The measured numbers land in
``benchmarks/results/BENCH_trace_overhead.json``.

Environment knobs:

* ``REPRO_TRACE_OVERHEAD_SCALE``    — workload scale (default 0.01)
* ``REPRO_TRACE_OVERHEAD_REQUESTS`` — storm size per round (default 300)
* ``REPRO_TRACE_OVERHEAD_CONNS``    — closed-loop clients (default 4)
* ``REPRO_TRACE_OVERHEAD_ROUNDS``   — rounds per mode (default 3)
* ``REPRO_TRACE_OVERHEAD_PCT``      — relative p50 budget (default 5.0)
* ``REPRO_TRACE_OVERHEAD_ABS_MS``   — absolute p50 slack in ms
  (default 0.25; absorbs sub-millisecond scheduler noise on small
  workloads where 5% of p50 is tens of microseconds)
"""

from __future__ import annotations

import json
import os
import statistics

import pytest

from repro.config.rulebook import RuleBook
from repro.core import AuricEngine
from repro.core.recommendation import RecommendRequest
from repro.dataio.keys import carrier_key_to_str
from repro.datagen import four_markets_workload
from repro.obs import flight, tracing
from repro.obs import metrics as obs_metrics
from repro.rng import DEFAULT_SEED
from repro.serve import RecommendationService
from repro.serve.front import (
    FrontConfig,
    ShardSet,
    StormProfile,
    run_storm,
    serve_in_thread,
)

SCALE = float(os.environ.get("REPRO_TRACE_OVERHEAD_SCALE", "0.01"))
REQUESTS = int(os.environ.get("REPRO_TRACE_OVERHEAD_REQUESTS", "300"))
CONNECTIONS = int(os.environ.get("REPRO_TRACE_OVERHEAD_CONNS", "4"))
ROUNDS = int(os.environ.get("REPRO_TRACE_OVERHEAD_ROUNDS", "3"))
BUDGET_PCT = float(os.environ.get("REPRO_TRACE_OVERHEAD_PCT", "5.0"))
ABS_SLACK_MS = float(os.environ.get("REPRO_TRACE_OVERHEAD_ABS_MS", "0.25"))
SHARDS = 2
PARAMETERS = ("pMax", "inactivityTimer")


@pytest.fixture(scope="module")
def overhead_workload():
    dataset = four_markets_workload(scale=SCALE)
    engine = AuricEngine(dataset.network, dataset.store).fit(list(PARAMETERS))
    rulebook = RuleBook(dataset.store.catalog)
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
    return engine, rulebook, payloads, expected


def _storm_round(engine, rulebook, payloads, expected, traced, dump_dir):
    """One storm against a fresh front end; returns the report."""
    if traced:
        tracing.configure([])
        flight.configure(dump_dir=dump_dir)
    try:
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
            return run_storm(
                "127.0.0.1",
                handle.port,
                payloads,
                StormProfile(requests=REQUESTS, connections=CONNECTIONS),
                expected,
            )
        finally:
            handle.stop()
            shard_set.stop()
    finally:
        flight.disable()
        tracing.disable()


def test_trace_overhead_within_budget(
    overhead_workload, results_dir, tmp_path, run_environment
):
    engine, rulebook, payloads, expected = overhead_workload
    obs_metrics.enable()
    baseline_p50, traced_p50 = [], []
    try:
        # Warm-up round (cache fill, JIT-ish effects) — discarded.
        _storm_round(
            engine, rulebook, payloads, expected, False, str(tmp_path)
        )
        for _ in range(ROUNDS):
            off = _storm_round(
                engine, rulebook, payloads, expected, False, str(tmp_path)
            )
            on = _storm_round(
                engine, rulebook, payloads, expected, True, str(tmp_path)
            )
            assert off.error_rate == 0.0 and on.error_rate == 0.0
            baseline_p50.append(off.percentile_ms(0.50))
            traced_p50.append(on.percentile_ms(0.50))
    finally:
        obs_metrics.disable()

    base = statistics.median(baseline_p50)
    traced = statistics.median(traced_p50)
    budget_ms = base * (BUDGET_PCT / 100.0) + ABS_SLACK_MS
    overhead_ms = traced - base
    overhead_pct = (overhead_ms / base * 100.0) if base > 0 else 0.0

    document = {
        **run_environment,
        "scale": SCALE,
        "seed": DEFAULT_SEED,
        "requests_per_round": REQUESTS,
        "connections": CONNECTIONS,
        "rounds": ROUNDS,
        "baseline_p50_ms": baseline_p50,
        "traced_p50_ms": traced_p50,
        "median_baseline_p50_ms": round(base, 4),
        "median_traced_p50_ms": round(traced, 4),
        "overhead_ms": round(overhead_ms, 4),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": BUDGET_PCT,
        "abs_slack_ms": ABS_SLACK_MS,
        "gate": (
            f"median traced p50 <= baseline p50 * "
            f"(1 + {BUDGET_PCT}%) + {ABS_SLACK_MS}ms"
        ),
    }
    path = results_dir / "BENCH_trace_overhead.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\n{json.dumps(document, indent=2)}")

    assert traced <= base + budget_ms, (
        f"observability overhead {overhead_ms:.3f}ms "
        f"({overhead_pct:.1f}%) exceeds the {BUDGET_PCT}% + "
        f"{ABS_SLACK_MS}ms budget (baseline p50 {base:.3f}ms, "
        f"traced p50 {traced:.3f}ms)"
    )

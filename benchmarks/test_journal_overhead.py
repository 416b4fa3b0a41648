"""Benchmark gate: engine-lifecycle journal overhead.

The journal promises "free until something happens": serving requests
never write records (only lifecycle transitions do), and a fit pays one
fsynced line plus the in-fit phase timers.  This gate measures both
promises in interleaved rounds (journal off / journal on), gates the
medians, and exercises a full lifecycle — fit, hot swap, push,
rollback — under load to assert the reconstructed timeline has zero
missing parent links.  The measured numbers land in
``benchmarks/results/BENCH_journal.json``.

Environment knobs:

* ``REPRO_JOURNAL_OVERHEAD_SCALE``    — workload scale (default 0.01)
* ``REPRO_JOURNAL_OVERHEAD_REQUESTS`` — storm size per round (default 200)
* ``REPRO_JOURNAL_OVERHEAD_CONNS``    — closed-loop clients (default 4)
* ``REPRO_JOURNAL_OVERHEAD_ROUNDS``   — rounds per mode (default 3)
* ``REPRO_JOURNAL_FIT_PCT``           — relative fit budget (default 5.0)
* ``REPRO_JOURNAL_SERVE_PCT``         — relative serve-p50 budget
  (default 2.0)
* ``REPRO_JOURNAL_ABS_MS``            — absolute slack in ms applied to
  both gates (default 0.25 serve / 25.0 fit; absorbs scheduler noise
  on workloads where the relative budget is microseconds)
"""

from __future__ import annotations

import json
import os
import statistics
import time

import pytest

from repro.config.rulebook import RuleBook
from repro.core import AuricEngine
from repro.core.recommendation import RecommendRequest
from repro.dataio.keys import carrier_key_to_str
from repro.datagen import four_markets_workload
from repro.obs import journal as obs_journal
from repro.rng import DEFAULT_SEED
from repro.serve import RecommendationService
from repro.serve.front import (
    FrontConfig,
    ShardSet,
    StormProfile,
    run_storm,
    serve_in_thread,
)

SCALE = float(os.environ.get("REPRO_JOURNAL_OVERHEAD_SCALE", "0.01"))
REQUESTS = int(os.environ.get("REPRO_JOURNAL_OVERHEAD_REQUESTS", "200"))
CONNECTIONS = int(os.environ.get("REPRO_JOURNAL_OVERHEAD_CONNS", "4"))
ROUNDS = int(os.environ.get("REPRO_JOURNAL_OVERHEAD_ROUNDS", "3"))
FIT_BUDGET_PCT = float(os.environ.get("REPRO_JOURNAL_FIT_PCT", "5.0"))
SERVE_BUDGET_PCT = float(os.environ.get("REPRO_JOURNAL_SERVE_PCT", "2.0"))
SERVE_ABS_MS = float(os.environ.get("REPRO_JOURNAL_ABS_MS", "0.25"))
FIT_ABS_MS = float(os.environ.get("REPRO_JOURNAL_ABS_MS", "25.0"))
SHARDS = 2
PARAMETERS = ("pMax", "inactivityTimer")


@pytest.fixture(scope="module")
def journal_workload():
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
    return dataset, engine, rulebook, payloads, expected


def _fit_once(dataset) -> float:
    started = time.perf_counter()
    AuricEngine(dataset.network, dataset.store).fit(list(PARAMETERS))
    return (time.perf_counter() - started) * 1000.0


def _storm_round(engine, rulebook, payloads, expected, churn):
    """One storm against a fresh front end, with optional mid-run
    lifecycle churn (hot swaps while requests are in flight)."""
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
        if churn:
            shard_set.hot_swap(engine=engine, warm=False, trigger="bench")
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


def test_journal_overhead_within_budget(
    journal_workload, results_dir, tmp_path, run_environment
):
    dataset, engine, rulebook, payloads, expected = journal_workload
    journal_path = str(tmp_path / "bench-journal.jsonl")

    # -- fit overhead (journal fsyncs one record per fit) ------------------
    _fit_once(dataset)  # warm-up, discarded
    fit_off_ms, fit_on_ms = [], []
    for _ in range(ROUNDS):
        obs_journal.disable()
        fit_off_ms.append(_fit_once(dataset))
        obs_journal.configure(journal_path, fsync=True)
        try:
            fit_on_ms.append(_fit_once(dataset))
        finally:
            obs_journal.disable()

    # -- serve overhead (requests never touch the journal) -----------------
    _storm_round(engine, rulebook, payloads, expected, churn=False)  # warm-up
    serve_off_p50, serve_on_p50 = [], []
    for _ in range(ROUNDS):
        off = _storm_round(engine, rulebook, payloads, expected, churn=False)
        obs_journal.configure(journal_path, fsync=True)
        try:
            on = _storm_round(engine, rulebook, payloads, expected, churn=True)
        finally:
            obs_journal.disable()
        assert off.error_rate == 0.0 and on.error_rate == 0.0
        serve_off_p50.append(off.percentile_ms(0.50))
        serve_on_p50.append(on.percentile_ms(0.50))

    # -- lifecycle completeness: the churned rounds wrote a replayable DAG -
    scan = obs_journal.read_journal(journal_path)
    assert scan.skipped == 0
    timeline = obs_journal.assemble_timeline(scan.records)
    assert timeline.complete, timeline.missing_parents
    swaps = [
        entry
        for node_map in timeline.streams.values()
        for node in node_map.values()
        for entry in node.events
        if entry["event"] == "hot-swap"
    ]
    assert len(swaps) >= ROUNDS

    fit_base = statistics.median(fit_off_ms)
    fit_on = statistics.median(fit_on_ms)
    serve_base = statistics.median(serve_off_p50)
    serve_on = statistics.median(serve_on_p50)
    fit_budget_ms = fit_base * (FIT_BUDGET_PCT / 100.0) + FIT_ABS_MS
    serve_budget_ms = serve_base * (SERVE_BUDGET_PCT / 100.0) + SERVE_ABS_MS

    document = {
        **run_environment,
        "scale": SCALE,
        "seed": DEFAULT_SEED,
        "requests_per_round": REQUESTS,
        "connections": CONNECTIONS,
        "rounds": ROUNDS,
        "fit_off_ms": [round(v, 3) for v in fit_off_ms],
        "fit_on_ms": [round(v, 3) for v in fit_on_ms],
        "median_fit_off_ms": round(fit_base, 3),
        "median_fit_on_ms": round(fit_on, 3),
        "fit_overhead_pct": round(
            (fit_on - fit_base) / fit_base * 100.0 if fit_base else 0.0, 2
        ),
        "serve_off_p50_ms": [round(v, 4) for v in serve_off_p50],
        "serve_on_p50_ms": [round(v, 4) for v in serve_on_p50],
        "median_serve_off_p50_ms": round(serve_base, 4),
        "median_serve_on_p50_ms": round(serve_on, 4),
        "serve_overhead_pct": round(
            (serve_on - serve_base) / serve_base * 100.0 if serve_base else 0.0,
            2,
        ),
        "journal_records": len(scan.records),
        "timeline_complete": timeline.complete,
        "gates": {
            "fit": (
                f"median fit <= baseline * (1 + {FIT_BUDGET_PCT}%) "
                f"+ {FIT_ABS_MS}ms"
            ),
            "serve": (
                f"median p50 <= baseline p50 * (1 + {SERVE_BUDGET_PCT}%) "
                f"+ {SERVE_ABS_MS}ms"
            ),
        },
    }
    path = results_dir / "BENCH_journal.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\n{json.dumps(document, indent=2)}")

    assert fit_on <= fit_base + fit_budget_ms, (
        f"journal fit overhead {fit_on - fit_base:.2f}ms exceeds the "
        f"{FIT_BUDGET_PCT}% + {FIT_ABS_MS}ms budget "
        f"(baseline {fit_base:.2f}ms, journaled {fit_on:.2f}ms)"
    )
    assert serve_on <= serve_base + serve_budget_ms, (
        f"journal serve overhead {serve_on - serve_base:.3f}ms exceeds "
        f"the {SERVE_BUDGET_PCT}% + {SERVE_ABS_MS}ms budget "
        f"(baseline p50 {serve_base:.3f}ms, journaled p50 {serve_on:.3f}ms)"
    )

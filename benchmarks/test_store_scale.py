"""Benchmark: the paper-scale data path through the snapshot store.

The gate of the :mod:`repro.store` tier: fit + serve the four-market
workload at ``REPRO_STORE_SCALE`` (default 1.0, the paper's ≈400K-carrier
order of magnitude) with the columnar snapshot persisted in an mmap
store, and assert the economics the store exists for:

* **cold start** — opening the persisted store (zero-copy mmap) must be
  at least ``REPRO_STORE_MIN_COLD_SPEEDUP``× faster than re-encoding
  the snapshot from the configuration store (default 10×), each side
  timed as the median of ``COLD_START_REPEATS`` alternating runs;
* **fit budget** — the columnar fit itself (generation excluded — that
  is dataset manufacturing, not the data path) stays under
  ``REPRO_STORE_FIT_BUDGET_S``;
* **serve budget** — leave-one-out serving over the fitted engine stays
  under ``REPRO_STORE_SERVE_MS_PER_REQ`` per request;
* **incremental == full** — a changelog refit is byte-identical to a
  from-scratch refit (checked at a reduced scale so
  the double fit stays affordable);
* **memory** — peak RSS stays under ``REPRO_STORE_MAX_RSS_GB``.

Everything lands in ``benchmarks/results/BENCH_store_scale.json``,
with the host's core count, the Python version and the git commit the
numbers were measured on.

Environment knobs:

* ``REPRO_STORE_SCALE``             — workload scale (default 1.0)
* ``REPRO_STORE_MIN_COLD_SPEEDUP``  — mmap-vs-re-encode gate (default 10)
* ``REPRO_STORE_FIT_BUDGET_S``      — fit wall-clock budget (default 1800)
* ``REPRO_STORE_SERVE_MS_PER_REQ``  — serve budget (default 50 ms)
* ``REPRO_STORE_SERVE_REQUESTS``    — serve sample size (default 200)
* ``REPRO_STORE_EQUIV_SCALE``       — equivalence-check scale (default
  min(scale, 0.02))
* ``REPRO_STORE_MAX_RSS_GB``        — peak-RSS ceiling (default 48)
"""

from __future__ import annotations

import copy
import json
import os
import resource
import statistics
import time

import pytest

from repro.core import AuricEngine
from repro.core.auric import AuricConfig
from repro.core.columnar import ColumnarSnapshot
from repro.core.recommendation import RecommendRequest
from repro.datagen import four_markets_workload
from repro.ops.history import ChangeLog, ChangeSource
from repro.rng import DEFAULT_SEED
from repro.serve import RecommendationService, load_engine, save_engine
from repro.serve.refresh import EngineRefresher
from repro.store import MmapSnapshotStore

from tests.conftest import model_state

SCALE = float(os.environ.get("REPRO_STORE_SCALE", "1.0"))
MIN_COLD_SPEEDUP = float(os.environ.get("REPRO_STORE_MIN_COLD_SPEEDUP", "10"))
FIT_BUDGET_S = float(os.environ.get("REPRO_STORE_FIT_BUDGET_S", "1800"))
SERVE_MS_PER_REQ = float(os.environ.get("REPRO_STORE_SERVE_MS_PER_REQ", "50"))
SERVE_REQUESTS = int(os.environ.get("REPRO_STORE_SERVE_REQUESTS", "200"))
EQUIV_SCALE = float(
    os.environ.get("REPRO_STORE_EQUIV_SCALE", str(min(SCALE, 0.02)))
)
MAX_RSS_GB = float(os.environ.get("REPRO_STORE_MAX_RSS_GB", "48"))

PARAMETERS = ("pMax", "inactivityTimer")
#: Re-encodes and mmap opens per cold-start measurement.  At the CI
#: scale one of each takes a few milliseconds, so a single pair's ratio
#: moves with scheduler noise; the median of alternating runs does not.
COLD_START_REPEATS = 5


def peak_rss_gb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)


@pytest.fixture(scope="module")
def document(run_environment):
    return {
        **run_environment,
        "scale": SCALE,
        "seed": DEFAULT_SEED,
        "parameters": list(PARAMETERS),
        "gates": {
            "min_cold_speedup": MIN_COLD_SPEEDUP,
            "fit_budget_s": FIT_BUDGET_S,
            "serve_ms_per_request": SERVE_MS_PER_REQ,
            "max_rss_gb": MAX_RSS_GB,
        },
    }


@pytest.fixture(scope="module")
def store_dataset(document):
    started = time.perf_counter()
    dataset = four_markets_workload(scale=SCALE)
    document["generation_s"] = round(time.perf_counter() - started, 3)
    document["carriers"] = sum(1 for _ in dataset.network.carriers())
    return dataset


@pytest.fixture(scope="module")
def fitted(store_dataset, tmp_path_factory, document):
    """Fit once at scale with an mmap-backed columnar store; the fit
    wall-clock (generation excluded) is the budgeted figure."""
    base = tmp_path_factory.mktemp("store-scale")
    config = AuricConfig(store="mmap")
    started = time.perf_counter()
    engine = AuricEngine(
        store_dataset.network, store_dataset.store, config
    ).fit(list(PARAMETERS))
    fit_s = time.perf_counter() - started
    artifact = base / "engine.json"
    save_engine(engine, str(artifact))
    document["fit_s"] = round(fit_s, 3)
    document["samples"] = {
        name: len(engine.fitted_models()[name].encoded)
        for name in PARAMETERS
    }
    store_path = str(artifact) + ".columnar"
    document["store_bytes"] = os.path.getsize(store_path)
    document["artifact_bytes"] = os.path.getsize(artifact)
    return engine, str(artifact), store_path


def test_fit_within_budget(fitted, document):
    assert document["fit_s"] < FIT_BUDGET_S, (
        f"columnar fit took {document['fit_s']:.1f}s at scale {SCALE} "
        f"(budget {FIT_BUDGET_S}s)"
    )


def test_cold_start_mmap_beats_reencode(fitted, store_dataset, document):
    """The tentpole economics: open+mmap versus a full re-encode, each
    the median of ``COLD_START_REPEATS`` runs taken in alternation."""
    _, _, store_path = fitted
    specs = [store_dataset.catalog.spec(name) for name in PARAMETERS]

    encode_runs, mmap_runs = [], []
    for _ in range(COLD_START_REPEATS):
        started = time.perf_counter()
        encoded = ColumnarSnapshot.encode(
            store_dataset.network, store_dataset.store, specs
        )
        encode_runs.append(time.perf_counter() - started)
        assert encoded.has_parameter("pMax")

        started = time.perf_counter()
        mapped = MmapSnapshotStore(store_path).load()
        mmap_runs.append(time.perf_counter() - started)
        assert mapped is not None and mapped.has_parameter("pMax")

    encode_s = statistics.median(encode_runs)
    mmap_s = statistics.median(mmap_runs)
    speedup = encode_s / max(mmap_s, 1e-9)
    document["cold_start"] = {
        "repeats": COLD_START_REPEATS,
        "reencode_s": round(encode_s, 4),
        "mmap_open_s": round(mmap_s, 6),
        "speedup": round(speedup, 1),
    }
    assert speedup >= MIN_COLD_SPEEDUP, (
        f"mmap cold start only {speedup:.1f}x faster than re-encode "
        f"(re-encode {encode_s:.2f}s, mmap {mmap_s:.4f}s; "
        f"gate {MIN_COLD_SPEEDUP}x)"
    )


def test_artifact_reload_uses_store(fitted, store_dataset, document):
    engine, artifact, _ = fitted
    started = time.perf_counter()
    loaded = load_engine(
        artifact, store_dataset.network, store_dataset.store
    )
    document["artifact_load_s"] = round(time.perf_counter() - started, 3)
    snapshot = loaded.columnar_snapshot()
    assert snapshot is not None
    # Zero-copy adoption: the arrays are read-only mmap views.
    assert not snapshot.codes.flags.writeable
    carrier = sorted(store_dataset.store.singular_values("pMax"))[0]
    assert loaded.recommend_for_carrier(
        "pMax", carrier, local=False, leave_one_out=True
    ) == engine.recommend_for_carrier(
        "pMax", carrier, local=False, leave_one_out=True
    )


def test_serve_within_budget(fitted, store_dataset, document):
    engine, _, _ = fitted
    service = RecommendationService(engine)
    carriers = sorted(store_dataset.store.singular_values("pMax"))[
        :SERVE_REQUESTS
    ]
    requests = [
        RecommendRequest(
            carrier_id=c, parameters=PARAMETERS, leave_one_out=True
        )
        for c in carriers
    ]
    started = time.perf_counter()
    results = service.handle_batch(requests)
    serve_s = time.perf_counter() - started
    assert len(results) == len(requests)
    per_request_ms = serve_s / len(requests) * 1000.0
    document["serve"] = {
        "requests": len(requests),
        "total_s": round(serve_s, 3),
        "ms_per_request": round(per_request_ms, 3),
    }
    assert per_request_ms < SERVE_MS_PER_REQ, (
        f"serving cost {per_request_ms:.1f} ms/request at scale {SCALE} "
        f"(budget {SERVE_MS_PER_REQ} ms)"
    )


def test_incremental_refit_equivalence(document):
    """Byte-identity of the changelog refit's new engine vs a full
    refit, at a scale where the double fit is affordable."""
    dataset = four_markets_workload(scale=EQUIV_SCALE)
    config = AuricConfig()
    store = copy.deepcopy(dataset.store)
    engine = AuricEngine(dataset.network, store, config).fit(
        list(PARAMETERS)
    )
    refresher = EngineRefresher(RecommendationService(engine))
    log = ChangeLog()
    values = store.singular_values("pMax")
    vocab = sorted({v for v in values.values()}, key=repr)
    touched = sorted(values)[:25]
    for key in touched:
        old = values[key]
        new = next(v for v in vocab if v != old)
        store.set_singular(key, "pMax", new)
        log.record(key, "pMax", old, new, ChangeSource.MANUAL)

    started = time.perf_counter()
    result = refresher.refit(log)
    incremental_s = time.perf_counter() - started

    started = time.perf_counter()
    fresh = AuricEngine(dataset.network, store, config).fit(
        list(PARAMETERS)
    )
    full_s = time.perf_counter() - started

    refit = refresher.service.engine
    assert refit is not engine
    for name in PARAMETERS:
        assert model_state(refit.fitted_models()[name]) == model_state(
            fresh.fitted_models()[name]
        ), f"incremental refit diverged from full refit on {name}"
    document["incremental_refit"] = {
        "scale": EQUIV_SCALE,
        "changes": len(touched),
        "refitted": result.refitted,
        "incremental_s": round(incremental_s, 3),
        "full_refit_s": round(full_s, 3),
        "byte_identical": True,
    }


def test_write_report(results_dir, document):
    """Last by name-independent ordering: runs after the fixtures above
    populated the document (pytest executes this file top to bottom)."""
    document["peak_rss_gb"] = round(peak_rss_gb(), 3)
    path = results_dir / "BENCH_store_scale.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nstore scale benchmark: {json.dumps(document, indent=2)}")
    assert document["peak_rss_gb"] < MAX_RSS_GB, (
        f"peak RSS {document['peak_rss_gb']:.1f} GB exceeds "
        f"{MAX_RSS_GB} GB"
    )

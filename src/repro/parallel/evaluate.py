"""Parallel leave-one-out evaluation.

The master decides *what* to evaluate — which parameters, which sampled
target indices (so the subsampling RNG never runs in a worker) — and
fans contiguous index chunks out across the pool.  The payload is the
fitted engine; each worker rebuilds its learning view once and caches
per-parameter sample sets for the pool's lifetime (sample rows stay
lazy — the LOO sweep votes from the engine's stored cells, so the raw
attribute tuples are never materialized).  Chunks come back in
submission order and merge into the same
:class:`~repro.eval.runner.LocalVsGlobalResult` the serial sweep
produces: identical accuracies, identical mismatch lists in identical
order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.parallel.pool import effective_jobs, get_payload, run_tasks

# Per-process worker state keyed on payload identity (see repro.parallel.fit).
_STATE: Dict[str, object] = {"payload": None, "view": None, "samples": None}


def split_evenly(items: Sequence, n_chunks: int) -> List[list]:
    """Contiguous, order-preserving chunks with sizes differing by <= 1."""
    items = list(items)
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _worker_samples(engine, parameter, market_id):
    from repro.eval.dataset import LearningView

    if _STATE["payload"] is not engine:
        _STATE["payload"] = engine
        _STATE["view"] = LearningView(engine.network, engine.store)
        _STATE["samples"] = {}
    cache = _STATE["samples"]
    key = (parameter, market_id)
    if key not in cache:
        cache[key] = _STATE["view"].samples(parameter, market_id)
    return cache[key]


def _loo_task(task):
    from repro.eval.runner import evaluate_loo_chunk

    parameter, market_id, indices, scopes = task
    engine = get_payload()
    samples = _worker_samples(engine, parameter, market_id)
    return evaluate_loo_chunk(engine, parameter, samples, list(indices), scopes)


def parallel_loo_accuracy(
    engine,
    plan: Sequence[Tuple[str, Sequence[int]]],
    market_id,
    scopes: Tuple[str, ...],
    jobs: int,
):
    """Evaluate a LOO plan — ``[(parameter, target indices), ...]`` with
    indices already sampled by the master — across a process pool."""
    from repro.eval.runner import LocalVsGlobalResult

    # The hint is the total LOO target count: each target is one cheap
    # vote, so small sweeps collapse to serial before chunking happens
    # and the chunks match the workers that will actually exist.
    total_targets = sum(len(indices) for _parameter, indices in plan)
    jobs = effective_jobs(jobs, total_targets, work_hint=total_targets)
    tasks = []
    for parameter, indices in plan:
        for chunk in split_evenly(indices, jobs):
            tasks.append((parameter, market_id, tuple(chunk), tuple(scopes)))
    outcomes = run_tasks(engine, _loo_task, tasks, jobs=jobs)
    obs_metrics.counter(
        "repro_loo_targets_total",
        "Leave-one-out targets evaluated through the parallel sweep",
    ).inc(float(total_targets))

    result = LocalVsGlobalResult()
    totals: Dict[str, Dict[str, int]] = {
        parameter: {scope: 0 for scope in scopes} for parameter, _ in plan
    }
    for (parameter, _market, _chunk, _scopes), (hits, mismatches) in zip(
        tasks, outcomes
    ):
        for scope in scopes:
            totals[parameter][scope] += hits[scope]
            if scope == "local":
                result.mismatches_local.extend(mismatches[scope])
            else:
                result.mismatches_global.extend(mismatches[scope])
    for parameter, indices in plan:
        n = len(indices)
        if "local" in scopes:
            result.parameter_accuracy_local[parameter] = (
                totals[parameter]["local"] / n
            )
        if "global" in scopes:
            result.parameter_accuracy_global[parameter] = (
                totals[parameter]["global"] / n
            )
        result.evaluated += n
    return result

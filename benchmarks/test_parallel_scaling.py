"""Benchmark: serial vs process-pool fit and LOO evaluation.

Times the same work at ``jobs=1`` and at every setting in a ``--jobs``
sweep, asserts the results are identical at each setting (the
:mod:`repro.parallel` determinism contract), and records the wall-clock
numbers in ``benchmarks/results/BENCH_parallel.json``.

The headline invariant is the adaptive-cutover guarantee: because
:func:`repro.parallel.pool.effective_jobs` caps workers at the host's
cores and the workload's size, asking for parallelism must never lose
to serial — ``speedup >= SPEEDUP_FLOOR`` at **every** jobs setting, on
any host.  On a single-core runner every setting degrades to the serial
path (speedup ~1.0); on a multi-core machine the fan-out across
parameters and LOO folds is what the speedup measures.

Environment knobs:

* ``REPRO_PARALLEL_SCALE`` — four-market workload scale (default 0.02)
* ``REPRO_PARALLEL_JOBS``  — comma-separated jobs sweep (default "2,4")
* ``REPRO_PARALLEL_FLOOR`` — speedup floor (default 0.90: the guarantee
  is ">= 1.0x modulo timer noise"; single-run wall clocks on shared CI
  runners jitter a few percent either way)
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core import AuricEngine
from repro.datagen import four_markets_workload
from repro.eval.runner import EvaluationRunner
from repro.experiments.parameter_selection import evaluation_parameters
from repro.rng import DEFAULT_SEED

from tests.conftest import model_state

SCALE = float(os.environ.get("REPRO_PARALLEL_SCALE", "0.02"))
JOBS_SWEEP = [
    int(jobs)
    for jobs in os.environ.get("REPRO_PARALLEL_JOBS", "2,4").split(",")
    if jobs.strip()
]
SPEEDUP_FLOOR = float(os.environ.get("REPRO_PARALLEL_FLOOR", "0.90"))
MAX_TARGETS = 500


@pytest.fixture(scope="module")
def parallel_dataset():
    return four_markets_workload(scale=SCALE)


@pytest.fixture(scope="module")
def parallel_parameters(parallel_dataset):
    return evaluation_parameters(parallel_dataset)


def _models_equal(a, b) -> bool:
    if set(a) != set(b):
        return False
    return all(model_state(a[name]) == model_state(b[name]) for name in a)


def test_parallel_never_loses_to_serial(
    parallel_dataset, parallel_parameters, results_dir, run_environment
):
    dataset = parallel_dataset
    parameters = parallel_parameters

    # Warm-up: first fit pays one-time import and allocation costs that
    # would otherwise be billed to whichever timing runs first.
    AuricEngine(dataset.network, dataset.store).fit(parameters, jobs=1)

    started = time.perf_counter()
    serial_engine = AuricEngine(dataset.network, dataset.store).fit(
        parameters, jobs=1
    )
    fit_serial_s = time.perf_counter() - started

    runner = EvaluationRunner(dataset)
    started = time.perf_counter()
    serial = runner.loo_accuracy(
        serial_engine, parameters,
        max_targets_per_parameter=MAX_TARGETS, jobs=1,
    )
    loo_serial_s = time.perf_counter() - started

    sweep = {}
    for jobs in JOBS_SWEEP:
        started = time.perf_counter()
        parallel_engine = AuricEngine(dataset.network, dataset.store).fit(
            parameters, jobs=jobs
        )
        fit_parallel_s = time.perf_counter() - started
        assert _models_equal(
            serial_engine.fitted_models(), parallel_engine.fitted_models()
        )

        started = time.perf_counter()
        parallel = runner.loo_accuracy(
            serial_engine, parameters,
            max_targets_per_parameter=MAX_TARGETS, jobs=jobs,
        )
        loo_parallel_s = time.perf_counter() - started

        assert serial.parameter_accuracy_local == parallel.parameter_accuracy_local
        assert serial.parameter_accuracy_global == parallel.parameter_accuracy_global
        assert serial.mismatches_local == parallel.mismatches_local
        assert serial.mismatches_global == parallel.mismatches_global
        assert serial.evaluated == parallel.evaluated

        fit_speedup = fit_serial_s / fit_parallel_s if fit_parallel_s else 1.0
        loo_speedup = loo_serial_s / loo_parallel_s if loo_parallel_s else 1.0
        sweep[str(jobs)] = {
            "fit_s": fit_parallel_s,
            "fit_speedup": round(fit_speedup, 3),
            "loo_s": loo_parallel_s,
            "loo_speedup": round(loo_speedup, 3),
        }

        # The adaptive-cutover invariant: --jobs never loses to serial.
        assert fit_speedup >= SPEEDUP_FLOOR, (
            f"fit at jobs={jobs} lost to serial: {fit_speedup:.3f}x "
            f"(floor {SPEEDUP_FLOOR})"
        )
        assert loo_speedup >= SPEEDUP_FLOOR, (
            f"LOO at jobs={jobs} lost to serial: {loo_speedup:.3f}x "
            f"(floor {SPEEDUP_FLOOR})"
        )

    document = {
        **run_environment,
        "jobs_sweep": JOBS_SWEEP,
        "speedup_floor": SPEEDUP_FLOOR,
        "scale": SCALE,
        "seed": DEFAULT_SEED,
        "parameters": len(parameters),
        "targets_evaluated": serial.evaluated,
        "fit_serial_s": fit_serial_s,
        "loo_serial_s": loo_serial_s,
        "by_jobs": sweep,
        "identical_results": True,
        "invariant": f"fit and LOO speedup >= {SPEEDUP_FLOOR} at every jobs setting",
    }
    path = results_dir / "BENCH_parallel.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\n{json.dumps(document, indent=2)}")

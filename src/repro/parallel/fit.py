"""Parallel per-parameter attribute selection.

Each worker rebuilds one :class:`~repro.core.auric.AuricEngine` over the
shared snapshot payload (once per pool lifetime) and runs the
chi-square selection of parameters from it; only the selection —
``(dependent columns, stats)`` — travels back, and the master builds
every model from it with the fit's own vote phase.  Determinism holds
by construction: attribute-selection subsampling draws from a
per-parameter derived RNG stream (``derive(seed, "fit-sample:<name>")``),
so a parameter's selection never depends on which worker ran it or
what else that worker ran before.

When the master has already encoded the snapshot into a
:class:`~repro.core.columnar.ColumnarSnapshot`, it rides along in the
payload — inherited for free under *fork*, unpickled once per worker
under *spawn* — so no worker re-encodes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.obs import tracing
from repro.parallel.pool import get_payload, run_tasks

# Per-process worker state, keyed on payload identity so it is rebuilt
# exactly once per pool lifetime (and never leaks across payloads when
# the serial fallback runs several calls in one process).
_STATE: Dict[str, object] = {"payload": None, "engine": None}


def _worker_engine():
    from repro.core.auric import AuricEngine

    payload = get_payload()
    if _STATE["payload"] is not payload:
        network, store, config, columnar = payload
        _STATE["payload"] = payload
        engine = AuricEngine(network, store, config)
        if columnar is not None:
            engine.attach_columnar(columnar)
        _STATE["engine"] = engine
    return _STATE["engine"]


def _fit_task(parameter: str):
    engine = _worker_engine()
    spec = engine.catalog.spec(parameter)
    with tracing.span("engine.fit_parameter", parameter=parameter) as sp:
        selection = engine._select_columnar(spec)
        sp.set("dependent", [stat.name for stat in selection[1]])
    # Worker registries are disabled, so phase timings ride back on the
    # task result for the master to observe (see fit-pipeline metrics).
    return parameter, selection, engine._take_fit_phases()


def select_parameters(
    network,
    store,
    config,
    parameters: Sequence[str],
    jobs: int = 1,
    columnar=None,
    phase_sink: Optional[Dict] = None,
) -> Dict[str, Tuple]:
    """Run many parameters' attribute selections across a process pool.

    Returns ``{parameter: (dependent columns, dependent stats)}``,
    identical to selecting the same parameters serially on one engine.
    ``columnar`` optionally carries the master's encoded snapshot to the
    workers.  ``phase_sink``, when given, accumulates the workers'
    per-parameter phase wall clock (``{(phase, parameter): seconds}``)
    so the master can surface ``repro_fit_phase_seconds`` — worker
    processes run with metrics disabled and cannot observe it
    themselves.
    """
    payload = (network, store, config, columnar)
    results = run_tasks(payload, _fit_task, list(parameters), jobs=jobs)
    selected = {}
    for parameter, selection, phases in results:
        selected[parameter] = selection
        if phase_sink is not None:
            for key, seconds in phases.items():
                phase_sink[key] = phase_sink.get(key, 0.0) + seconds
    return selected

"""The process pool: one-time payload transfer and serial fallback.

Workers receive a single *payload* object (the network snapshot, the
configuration store, a fitted engine, ...) exactly once:

* **fork** (Linux default): the parent publishes the payload in this
  module's globals immediately before creating the pool; forked workers
  inherit the parent's address space, so no serialization happens at
  all.
* **spawn / forkserver**: the payload is pickled once and handed to
  every worker through the pool initializer — still once per *worker*,
  never once per task.

Task functions must be module-level (picklable by reference) and reach
the payload through :func:`get_payload`.  Per-payload worker state
(rebuilt views, sample caches) should be keyed on the payload's
*identity* — see :mod:`repro.parallel.fit` — so it survives for the
pool's lifetime and also behaves correctly under the serial fallback.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs import metrics as obs_metrics
from repro.obs import tracing

#: Environment override for the pool start method ("fork", "spawn",
#: "forkserver").  Unset, the pool prefers fork where available; forcing
#: "spawn" exercises the one-pickle-per-worker payload transport on
#: platforms whose default is fork.
START_METHOD_ENV = "REPRO_POOL_START_METHOD"

#: Set to ``"0"`` to disable the adaptive serial/parallel cutover and
#: honor the requested ``--jobs`` literally (the pool test suite uses
#: this to exercise the worker path on single-core hosts).
ADAPTIVE_ENV = "REPRO_POOL_ADAPTIVE"

#: Minimum cheap work units (see ``work_hint``) a second worker must
#: bring along before standing up a pool is worth its setup cost.
MIN_WORK_PER_WORKER = 2048

T = TypeVar("T")
R = TypeVar("R")

#: The per-process shared payload.  In the master it is set transiently
#: (around a fork-context pool's lifetime, or a serial run); in workers
#: it is set once at startup and lives until the pool shuts down.
_PAYLOAD: Any = None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return multiprocessing.cpu_count()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs


def effective_jobs(
    jobs: Optional[int], n_tasks: int, work_hint: Optional[int] = None
) -> int:
    """The worker count actually worth using — the adaptive cutover.

    ``--jobs`` is a *ceiling*, not a promise: a process pool wider than
    the machine loses to serial (the ``BENCH_parallel.json`` regression
    — 0.6x on a 1-core host), and fanning out a workload whose total
    work is smaller than the pool's setup cost loses no matter how many
    cores exist.  Three reductions apply, in order:

    * never more workers than tasks,
    * never more workers than ``os.cpu_count()`` — on a single-core
      host every ``--jobs`` value degrades to serial,
    * when the caller supplies ``work_hint`` (an estimate of cheap unit
      operations, e.g. LOO targets), never more workers than
      ``work_hint // MIN_WORK_PER_WORKER`` — tiny sweeps stay serial
      even on wide machines.

    ``REPRO_POOL_ADAPTIVE=0`` disables the last two reductions so tests
    can force the worker path regardless of the host.
    """
    jobs = resolve_jobs(jobs)
    jobs = min(jobs, n_tasks) if n_tasks else 1
    if os.environ.get(ADAPTIVE_ENV, "1") == "0":
        return max(jobs, 1)
    cores = os.cpu_count() or 1
    jobs = min(jobs, cores)
    if work_hint is not None:
        jobs = min(jobs, max(work_hint // MIN_WORK_PER_WORKER, 1))
    return max(jobs, 1)


def get_payload() -> Any:
    """The shared payload, from a worker task function."""
    if _PAYLOAD is None:
        raise RuntimeError(
            "no worker payload is installed; task functions must run "
            "through repro.parallel.pool.run_tasks"
        )
    return _PAYLOAD


def _init_worker(payload_bytes: Optional[bytes] = None) -> None:
    """Pool initializer: install the payload in a spawned worker."""
    global _PAYLOAD
    if payload_bytes is not None:
        _PAYLOAD = pickle.loads(payload_bytes)


def _task_meta(started: float) -> dict:
    """Worker-side task metadata shipped back with each result.

    Workers run with metrics disabled (fork-inherited or fresh, the
    registry is never theirs to own), so the raw observations — when the
    worker *started* the task (wall clock, comparable to the master's
    submit time on the same host) and which worker ran it — ride back on
    the result for the master to turn into ``repro_pool_*`` metrics.
    """
    return {"started": started, "pid": os.getpid()}


def _run_traced(
    wrapped: Tuple[Optional[Tuple[str, str]], Callable[[T], R], T]
) -> Tuple[R, List[dict], dict]:
    """Worker-side shim: run one task under a span collector.

    The master ships its ``(trace_id, span_id)`` context with the task;
    the worker buffers every span it creates (re-rooted at that context
    via :func:`repro.obs.tracing.span_from_context`) and returns them as
    dicts alongside the result, for the master to
    :func:`~repro.obs.tracing.ingest` on the ordered merge.  Buffering
    also shields fork-inherited exporters (e.g. an open trace file)
    from duplicate worker-side writes.
    """
    started = time.time()
    context, fn, task = wrapped
    name = getattr(fn, "__name__", "task")
    # The shipped parent span lives in the master's process; mark the
    # boundary so trace assembly over a worker-only span set (a flight
    # dump cut mid-run) treats these as roots, not orphans.
    attrs = {"remote_parent": True} if context is not None else {}
    with tracing.collect() as collected:
        with tracing.span_from_context(context, f"pool.task:{name}", **attrs):
            result = fn(task)
    meta = _task_meta(started)
    return result, [span_obj.to_dict() for span_obj in collected], meta


def _run_timed(wrapped: Tuple[Callable[[T], R], T]) -> Tuple[R, dict]:
    """Worker-side shim for the untraced path: result + task metadata."""
    started = time.time()
    fn, task = wrapped
    return fn(task), _task_meta(started)


class _PoolMetrics:
    """Master-side aggregation of worker task metadata."""

    def __init__(self, mode: str, jobs: int = 0):
        registry_on = obs_metrics.enabled()
        self._tasks = (
            obs_metrics.counter(
                "repro_pool_tasks_total",
                "Pool tasks executed, by execution mode",
                labelnames=("mode",),
            )
            if registry_on
            else None
        )
        self._queue_wait = (
            obs_metrics.histogram(
                "repro_pool_queue_wait_seconds",
                "Submit-to-worker-start latency of pool tasks",
            )
            if registry_on
            else None
        )
        self._worker_tasks = (
            obs_metrics.counter(
                "repro_pool_worker_tasks_total",
                "Pool tasks executed, by worker pid",
                labelnames=("worker",),
            )
            if registry_on
            else None
        )
        self.mode = mode
        if jobs and registry_on:
            obs_metrics.gauge(
                "repro_pool_workers", "Workers in the most recent pool run"
            ).set(float(jobs))

    def task(self, submitted: Optional[float], meta: Optional[dict]) -> None:
        if self._tasks is None:
            return
        self._tasks.labels(mode=self.mode).inc()
        if meta is None:
            return
        if submitted is not None:
            self._queue_wait.observe(max(meta["started"] - submitted, 0.0))
        self._worker_tasks.labels(worker=str(meta["pid"])).inc()


def _run_serial(
    payload: Any, fn: Callable[[T], R], tasks: Sequence[T]
) -> List[R]:
    """Run the task functions in-process against the same payload."""
    global _PAYLOAD
    previous = _PAYLOAD
    _PAYLOAD = payload
    try:
        return [fn(task) for task in tasks]
    finally:
        _PAYLOAD = previous


def _start_method() -> Optional[str]:
    """The pool start method: the env override when valid, else fork
    where available, else the platform default (``None``)."""
    available = multiprocessing.get_all_start_methods()
    requested = os.environ.get(START_METHOD_ENV)
    if requested:
        if requested in available:
            return requested
        warnings.warn(
            f"{START_METHOD_ENV}={requested!r} is not available on this "
            f"platform (choices: {available}); using the default",
            RuntimeWarning,
            stacklevel=3,
        )
    if "fork" in available:
        return "fork"
    return None


def _make_executor(n_workers: int) -> ProcessPoolExecutor:
    """Build the pool for the current payload."""
    method = _start_method()
    if method == "fork":
        # Workers inherit _PAYLOAD from the parent's address space;
        # run_tasks publishes it before this call.
        return ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("fork"),
        )
    payload_bytes = pickle.dumps(_PAYLOAD, protocol=pickle.HIGHEST_PROTOCOL)
    return ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=multiprocessing.get_context(method) if method else None,
        initializer=_init_worker,
        initargs=(payload_bytes,),
    )


def run_tasks(
    payload: Any,
    fn: Callable[[T], R],
    tasks: Sequence[T],
    jobs: int = 1,
    work_hint: Optional[int] = None,
) -> List[R]:
    """Run ``fn`` over ``tasks`` against a shared payload.

    Results come back in task order regardless of completion order, so
    callers can merge deterministically.  The requested ``jobs`` is a
    ceiling: :func:`effective_jobs` lowers it to what the host and the
    workload (``work_hint``, total cheap work units) can actually use,
    so ``--jobs N`` never loses to serial.  With an effective worker
    count of 1, a single task, or a pool that cannot be created or
    breaks mid-run, the tasks run serially in-process — same functions,
    same payload, same results.
    """
    tasks = list(tasks)
    jobs = effective_jobs(jobs, len(tasks), work_hint)
    if jobs == 1 or len(tasks) <= 1:
        # Serial tasks run in-process, so their spans nest naturally
        # under the caller's current span — no propagation needed.
        with tracing.span("pool.run", mode="serial", tasks=len(tasks)):
            metrics = _PoolMetrics("serial")
            for _ in tasks:
                metrics.task(None, None)
            return _run_serial(payload, fn, tasks)

    global _PAYLOAD
    previous = _PAYLOAD
    _PAYLOAD = payload
    try:
        with tracing.span(
            "pool.run", mode="pool", tasks=len(tasks), jobs=jobs
        ):
            try:
                executor = _make_executor(min(jobs, len(tasks)))
            except (OSError, ValueError, PermissionError) as exc:
                warnings.warn(
                    f"process pool unavailable ({exc}); running serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return [fn(task) for task in tasks]
            try:
                metrics = _PoolMetrics("pool", jobs=jobs)
                if tracing.active():
                    # Ship the master's span context with each task;
                    # workers return their spans with the result and the
                    # ordered merge re-parents them into this trace.
                    context = tracing.current_context()
                    futures = [
                        (
                            time.time(),
                            executor.submit(_run_traced, (context, fn, task)),
                        )
                        for task in tasks
                    ]
                    results: List[R] = []
                    for submitted, future in futures:
                        result, worker_spans, meta = future.result()
                        tracing.ingest(worker_spans)
                        metrics.task(submitted, meta)
                        results.append(result)
                    return results
                futures = [
                    (time.time(), executor.submit(_run_timed, (fn, task)))
                    for task in tasks
                ]
                results = []
                for submitted, future in futures:
                    result, meta = future.result()
                    metrics.task(submitted, meta)
                    results.append(result)
                return results
            except (BrokenProcessPool, OSError) as exc:
                warnings.warn(
                    f"process pool failed ({exc}); re-running serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return [fn(task) for task in tasks]
            finally:
                executor.shutdown(wait=True)
    finally:
        _PAYLOAD = previous

"""Process-pool execution layer for engine fitting and LOO evaluation.

The layer fans embarrassingly-parallel work — per-parameter attribute
selections, per-parameter leave-one-out folds — across a pool of worker
processes while keeping every result byte-identical to the serial path:

* the shared snapshot payload crosses the process boundary **once per
  worker**, not once per task (fork start methods inherit it for free;
  spawn pickles it through the pool initializer);
* all randomness is decided in the master (sampled fold indices) or
  drawn from per-parameter derived RNG streams (attribute selection),
  so results cannot depend on worker count or scheduling;
* results are merged in task submission order.

``jobs=1`` — or any failure to stand a pool up — runs the exact same
task functions in-process.  The requested ``--jobs`` is a ceiling, not
a promise: :func:`~repro.parallel.pool.effective_jobs` lowers it to
what the host (``os.cpu_count()``) and the workload (``work_hint``)
can profitably use, so asking for parallelism never costs more than
serial (set ``REPRO_POOL_ADAPTIVE=0`` to disable the cutover).
"""

from repro.parallel.pool import effective_jobs, resolve_jobs, run_tasks
from repro.parallel.fit import select_parameters
from repro.parallel.evaluate import parallel_loo_accuracy

__all__ = [
    "effective_jobs",
    "resolve_jobs",
    "run_tasks",
    "select_parameters",
    "parallel_loo_accuracy",
]

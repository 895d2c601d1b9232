"""Deterministic worker-pool map.

The worker count comes from the KF_WORKERS environment variable and from
nowhere else; it is deliberately not a config key, so rerunning one
config under different counts is a meaningful determinism probe.  Tasks
are pure functions of their arguments (every random stream in the
package is a counter-based Philox stream seeded explicitly), results are
collected by task index, and all downstream reductions run in that fixed
order.  Concurrency can therefore change scheduling and nothing
observable.

The pool is a set of forked worker processes.  Threads do not pay here:
a task's numpy calls work on arrays of a few hundred rows, too short to
release the interpreter lock for long, so two threads took more CPU and
more wall time than one.  Forked workers inherit the task function and
its items, closures included, so only task indices go out and only
results (and exceptions, which must therefore pickle) come back.  Where
the platform cannot fork, the map runs serially.  Forked workers also
inherit the caller's imported modules, so an import that every task
needs should happen in the caller before the map, as
``zvonkin.zvonkin_transform``'s prefilter loads ``scipy.ndimage`` before
the residual's chunk tasks interpolate with it, and as
``zvonkin.search_lambda`` loads ``scipy.fft`` before its lam tasks
transform with it; ``integrator`` loads ``numpy.random`` at import for
the same reason, since every path task draws its noise in a worker.

Callers, each with what runs in a worker and what comes back by pickle:
- ``integrator.map_walk``: one WORK_CHUNK chunk of paths per task, on
  its own Philox streams; the chunk's reduction comes back, a per-row
  fold for ``flow``'s coupled estimators (the ``flow`` experiment,
  criteria 9-11), joined in row order, and per-checkpoint partial sums
  and counts for ``zvonkin.transformed_sde_residual`` (the ``zvonkin``
  experiment and criterion 7), added in chunk order.
- ``flow.convergence_study`` (the ``converge`` experiment and criterion
  8): one level of the mollification ladder per task; its coupled paths
  on both grids and its drift sample on the L^p box come back.
- ``zvonkin.search_lambda`` (the ``zvonkin`` experiment and criteria 5-7):
  one damping rate of the lam ladder per task, in batches of the worker
  count; the Picard fixed point, the rejection reason or the exception
  raised comes back, and the caller reads them in ladder order.
- ``fokker_planck.weak_residual`` (the ``fokker-planck`` experiment and
  criterion 14): one strided group of test-function members per task,
  with the checkpoints inherited at fork; each group evaluates the drift
  and ``a`` itself and makes the checkpoint pass for its members, and its
  rows of residuals and standard errors (the last group's also the
  integrability gate) come back and are placed in member order.
- ``fokker_planck.checkpoints_to_csv`` (the ``fokker-planck`` experiment's
  ``atoms.csv``): one checkpoint per task, formatted through the ``%.17g``
  row template; its text comes back and is written in checkpoint order.
Each task's result is the same bits in any process, and each caller
combines results in a fixed order, so no output depends on the count.

The count means forked worker processes and nothing else: the Zvonkin
resolvent's FFTs run on one thread inside the lam tasks, one task per
core, and no caller passes a count of its own to `parallel_map`.
"""

import os

from .errors import ValidationError

__all__ = ["ENV_VAR", "worker_count", "parallel_map"]

ENV_VAR = "KF_WORKERS"
MAX_WORKERS = 64

# (fn, items) of the map a worker process serves; set by `_serve` in the
# worker, never in the caller.
_task = None


def worker_count():
    """Worker count from KF_WORKERS in os.environ; unset means serial."""
    raw = os.environ.get(ENV_VAR)
    if raw is None or raw.strip() == "":
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValidationError(
            f"{ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if not 1 <= count <= MAX_WORKERS:
        raise ValidationError(
            f"{ENV_VAR} must lie in [1, {MAX_WORKERS}], got {count}"
        )
    return count


def _serve(fn, items):
    global _task
    _task = (fn, items)


def _run(index):
    fn, items = _task
    return fn(items[index])


def parallel_map(fn, items):
    """Order-preserving map of ``fn`` over ``items`` in forked processes.

    Uses ``min(worker_count(), len(items))`` worker processes.  ``fn``
    and ``items`` reach the workers by fork, not by pickling; each task
    returns ``fn(items[i])`` by pickle, and an exception raised by ``fn``
    is re-raised here.  A worker that dies raises ``BrokenProcessPool``.
    Every worker has exited when the call returns or raises.  One worker,
    one item, or a platform without ``fork`` maps serially in the caller.
    """
    import multiprocessing

    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_serve,
                             initargs=(fn, items)) as pool:
        return list(pool.map(_run, range(len(items))))

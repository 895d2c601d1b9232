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
the platform cannot fork, the map runs serially.

Callers: the ``flow`` experiment maps its delta ladder of two-point
moments, and ``flow.convergence_study`` (the ``converge`` experiment and
criterion 8) maps the levels of its mollification ladder.

The same count is the thread count of the Zvonkin resolvent's
slice-batched FFTs (``KernelStep.to_mixed``/``from_mixed`` and the
spectral velocity derivative), which pass it to ``scipy.fft`` as
``workers``.  Those threads split a batch of one-axis transforms between
them, and each transform is the same arithmetic on any thread, so the
bits do not depend on the count either.
"""

import os

from .errors import ValidationError

__all__ = ["ENV_VAR", "worker_count", "parallel_map"]

ENV_VAR = "KF_WORKERS"
MAX_WORKERS = 64

# (fn, items) of the map a worker process serves; set by `_serve` in the
# worker, never in the caller.
_task = None


def worker_count(environ=None):
    """Worker count from the environment; unset means serial."""
    raw = (environ if environ is not None else os.environ).get(ENV_VAR)
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


def parallel_map(fn, items, workers=None):
    """Order-preserving map of ``fn`` over ``items`` in forked processes.

    Uses ``min(workers, len(items))`` worker processes (``workers``
    defaults to `worker_count`).  ``fn`` and ``items`` reach the workers
    by fork, not by pickling; each task returns ``fn(items[i])`` by
    pickle, and an exception raised by ``fn`` is re-raised here.  A worker
    that dies raises ``BrokenProcessPool``.  Every worker has exited when
    the call returns or raises.  One worker, one item, or a platform
    without ``fork`` maps serially in the caller.
    """
    import multiprocessing

    items = list(items)
    if workers is None:
        workers = worker_count()
    workers = min(workers, len(items))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_serve,
                             initargs=(fn, items)) as pool:
        return list(pool.map(_run, range(len(items))))

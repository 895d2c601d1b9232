"""Deterministic worker-pool map.

The worker count comes from the KF_WORKERS environment variable and from
nowhere else; it is deliberately not a config key, so rerunning one
config under different counts is a meaningful determinism probe.  Tasks
are pure functions of their arguments (every random stream in the
package is seeded explicitly), results are collected by task index, and
all downstream reductions run in that fixed order.  Concurrency can
therefore change scheduling and nothing observable.

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
from concurrent.futures import ThreadPoolExecutor

from .errors import ValidationError

__all__ = ["ENV_VAR", "worker_count", "parallel_map"]

ENV_VAR = "KF_WORKERS"
MAX_WORKERS = 64


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


def parallel_map(fn, items, workers=None):
    """Order-preserving map over a worker pool.

    Threads suffice: the heavy kernels hold the interpreter lock only
    briefly (numpy releases it), and thread pools keep every task in the
    caller's process so seeded generators need no pickling story.
    """
    items = list(items)
    if workers is None:
        workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))

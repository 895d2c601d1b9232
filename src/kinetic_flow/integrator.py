"""Path simulation for the kinetic system dX = V dt, dV = b dt + sigma dW.

Noise comes from counter-based Philox streams keyed by (master_seed,
key-chunk), so any (master_seed, path_index, step_index) triple maps to one
increment no matter how work is scheduled; callers reduce paths in fixed
path order, which makes every statistic byte-stable across worker counts.
Two schemes: plain Euler ('em') and 'kinetic-exact', which replaces the
free-flight part of the step with an exact draw from the two-block
Gaussian transition (drift still Euler).  Both consume the same velocity
normals, so the schemes are synchronously coupled under a shared grid.
A constant sigma is applied once per chunk-step, never per state: sigma dW
is one (n, d) product that every start of a stack shares.
``walk`` is the one stepping loop: it yields each chunk's state at every
step with the increment that drives it on, so an estimator keeps only
what it needs; ``evolve`` is the recorder over it that returns whole paths.
It is also the one place a path can diverge: a state with a coordinate
beyond DIVERGENCE_THRESHOLD in absolute value, NaN or inf raises
DivergenceError before it is yielded, so every estimator sees only
states that pass, and none conditions its law on not diverging.
A stack of starts (s, n, 2d) walks on one draw of each chunk's noise, row
i of every start on stream path_offset + i: synchronous coupling by row.
``map_walk`` is how path chunks reach `parallel_map`'s workers: one task
per WORK_CHUNK chunk of rows, on streams lo .. hi - 1, whose reduction
comes back by pickle in row order (the coupled estimators of ``flow`` and
the Zvonkin residual).  ``particle_measure`` walks in the caller, since
its snapshots would come back by pickle at more memory and time than
they save; ``evolve`` returns whole paths, and the convergence ladder
maps its levels, not chunks.

The PDE slices, path steps, particle checkpoints and occupation windows
must share one time grid for the Ito identity of H(Z), so one rule decides
it: ``step_index`` maps t to its step j on origin + j dt up to a horizon T
and refuses a t more than GRID_TOL * max(1, T) off the grid or outside
[origin, T], and ``uniform_step`` checks that times are such a grid.  The
callers add only their own range rule: ``BrownianGrid.for_horizon``,
``particle_measure``, ``weak_residual``, ``krylov.window_steps``,
``SpaceTimeField``, ``transformed_sde_residual`` and ``pde_defect``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# loaded with the package, not at the first draw: the draws run in
# parallel_map's forked workers, and each would import numpy.random again
from numpy.random import Generator, Philox

from .errors import DivergenceError, ValidationError
from .parallel import parallel_map

__all__ = [
    "BrownianGrid",
    "Trajectory",
    "evolve",
    "map_walk",
    "row_norm",
    "step_index",
    "tagged_stream",
    "uniform_step",
    "walk",
    "walk_noise_floats",
    "DIVERGENCE_THRESHOLD",
    "WORK_CHUNK",
]

# paths per Philox key block; fixed so the (seed, path, step) -> increment map
# never depends on scheduling
KEY_CHUNK = 256
# paths per vectorized work unit; fixed for the same reason
WORK_CHUNK = 4096

# a state with max |z_i| beyond DIVERGENCE_THRESHOLD (or NaN/inf) has
# diverged; walk refuses it, and no estimator keeps or drops such a path
DIVERGENCE_THRESHOLD = 1e6
# relative tolerance (times max(1, horizon)) of the one on-grid rule
GRID_TOL = 1e-9


def step_index(t, dt, horizon, origin=0.0):
    """Step j with t = origin + j dt on the dt grid from origin to horizon.

    ``t`` is a number (an int comes back) or an array (an int array comes
    back).  A t more than GRID_TOL * max(1, horizon) off the grid, or whose
    step lies outside [origin, horizon], is refused.
    """
    ts = np.asarray(t, dtype=float)
    steps = np.rint((ts - origin) / dt)
    off = ~(np.abs(origin + steps * dt - ts) <= GRID_TOL * max(1.0, horizon))
    if np.any(off):
        raise ValidationError(f"{float(ts[off][0])!r} is not a whole number "
                              f"of dt = {float(dt)!r} steps from {float(origin)!r}")
    outside = (steps < 0) | (steps > np.rint((horizon - origin) / dt))
    if np.any(outside):
        raise ValidationError(f"{float(ts[outside][0])!r} lies outside the "
                              f"grid from {float(origin)!r} to {float(horizon)!r}")
    return steps.astype(int) if steps.ndim else int(steps)


def uniform_step(times):
    """First gap of ``times``; refuses times that do not increase through
    the uniform grid between their ends, each within step_index's tolerance
    of its grid point."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValidationError("need a 1d sequence of at least two times")
    n = times.size - 1
    grid = times[0] + np.arange(n + 1) * ((times[-1] - times[0]) / n)
    if not (np.all(np.diff(times) > 0) and np.all(
            np.abs(times - grid) <= GRID_TOL * max(1.0, times[-1]))):
        raise ValidationError("times must increase on a uniform time grid")
    return float(times[1] - times[0])


def row_norm(x, squared=False):
    """Euclidean norm over the last axis of ``x``, bit for bit
    ``np.linalg.norm(x, axis=-1)``; with ``squared`` the sum of squares,
    bit for bit ``np.sum(x * x, axis=-1)``.

    numpy adds up to 7 terms of a row left to right, which is what the
    column loop here does without a reduction over an axis this narrow;
    wider rows, which numpy adds through 8 accumulators, go through
    ``np.sum``.
    """
    if not 0 < x.shape[-1] <= 7:
        sq = np.sum(x * x, axis=-1)
    else:
        sq = x[..., 0] * x[..., 0]
        for j in range(1, x.shape[-1]):
            sq += x[..., j] * x[..., j]
    return sq if squared else np.sqrt(sq)


def tagged_stream(master_seed, tag):
    """Philox generator keyed by [master_seed, tag], for non-path draws."""
    key = np.array([int(master_seed) % (1 << 64), tag], dtype=np.uint64)
    return Generator(Philox(key=key))


def _philox_key(master_seed, block_index):
    # mix the seed so nearby seeds do not share key blocks
    mixed = (int(master_seed) * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) % (1 << 64)
    return np.array([mixed, int(block_index)], dtype=np.uint64)


@dataclass(frozen=True)
class BrownianGrid:
    """Deterministic lattice of Gaussian step noise for a family of paths.

    Each (path, step) owns 2*dim standard normals: the first dim drive the
    Brownian increments (scaled by sqrt(dt)), the rest feed the exact
    free-flight x-noise of the kinetic-exact scheme.  ``coarsened`` returns
    the grid at a multiple of dt with summed increments, the coupling used
    by refinement studies.  ``for_horizon`` builds the grid that steps
    from 0 to a horizon and refuses one that is not a whole number of dt.
    """

    master_seed: int
    dt: float
    num_steps: int
    dim: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0
                and self.num_steps >= 1 and self.dim >= 1):
            raise ValidationError(
                "BrownianGrid needs a finite dt > 0, num_steps >= 1, dim >= 1")

    @classmethod
    def for_horizon(cls, master_seed, horizon, dt, dim):
        horizon, dt = float(horizon), float(dt)
        if not (horizon > 0 and dt > 0 and np.isfinite(horizon / dt)):
            raise ValidationError("need finite horizon > 0 and dt > 0")
        steps = step_index(horizon, dt, horizon)
        if steps < 1:
            raise ValidationError(
                f"horizon {horizon:g} is shorter than one dt = {dt:g} step")
        return cls(master_seed, dt, steps, dim)

    @property
    def horizon(self):
        return self.dt * self.num_steps

    @property
    def times(self):
        """The grid the paths step on; times[1] is horizon / num_steps."""
        return np.linspace(0.0, self.horizon, self.num_steps + 1)

    def normals(self, path_lo, path_hi):
        """Standard normals, shape (path_hi - path_lo, num_steps, 2*dim)."""
        if path_lo < 0 or path_hi <= path_lo:
            raise ValidationError("need 0 <= path_lo < path_hi")
        per_path = (self.num_steps, 2 * self.dim)
        out = np.empty((path_hi - path_lo,) + per_path)
        row = path_lo
        while row < path_hi:
            blk = row // KEY_CHUNK
            rng = Generator(Philox(key=_philox_key(self.master_seed, blk)))
            # standard_normal fills in C order, so the first rows of a block
            # are the same whether or not the rest is drawn
            end = min((blk + 1) * KEY_CHUNK, path_hi)
            dst = out[row - path_lo : end - path_lo]
            skip = row - blk * KEY_CHUNK
            if skip:
                # only a first block that starts mid-block needs a temporary
                dst[...] = rng.standard_normal((skip + len(dst),) + per_path)[skip:]
            else:
                rng.standard_normal(out=dst)
            row = end
        return out

    def increments(self, path_lo, path_hi):
        """Brownian increments, shape (n, num_steps, dim)."""
        return np.sqrt(self.dt) * self.normals(path_lo, path_hi)[:, :, : self.dim]

    def coarsened(self, factor):
        if factor < 1 or self.num_steps % factor != 0:
            raise ValidationError("coarsening factor must divide num_steps")
        factor = int(factor)
        return _CoarsenedGrid(self.master_seed, self.dt * factor,
                              self.num_steps // factor, self.dim, self)


@dataclass(frozen=True)
class _CoarsenedGrid(BrownianGrid):
    """``fine`` at factor * dt: each increment sums ``factor`` fine ones."""

    fine: BrownianGrid

    @property
    def horizon(self):
        # dt * num_steps would round differently for factors off powers of 2
        return self.fine.horizon

    def increments(self, path_lo, path_hi):
        fine = self.fine.increments(path_lo, path_hi)
        n, _, d = fine.shape
        return fine.reshape(n, self.num_steps, -1, d).sum(axis=2)

    def normals(self, path_lo, path_hi):
        raise ValidationError(
            "coarsened grids provide Brownian increments only; "
            "run kinetic-exact on the native grid"
        )


@dataclass
class Trajectory:
    """Time grid plus states, shape ([s,] num_paths, num_steps+1, 2d)."""

    times: np.ndarray
    states: np.ndarray


def _exact_noise_factors(field, dt):
    sig = field.constant_sigma
    if sig is None:
        raise ValidationError("kinetic-exact scheme needs a constant-sigma field")
    # conditional split of the joint free-flight Gaussian: the v-noise is the
    # Brownian increment itself, x-noise = (dt/2) * dV + sqrt(dt^3/12) * sigma n
    return 0.5 * dt, np.sqrt(dt**3 / 12.0) * sig


def _step_batch(field, scheme, times, states, d, k, dt, dW, extra_normals):
    """One step of the ([s,] n, 2d) states on the (n, d) increments dW.

    A constant sigma multiplies dW once per chunk-step, never per state:
    sigma dW is the same for every start of a stack, so the (n, d) product
    broadcasts over it.  Only a field without constant_sigma evaluates
    ``field.sigma`` at the states.  Both give the same bits, since einsum
    adds each row's d products in the same order.
    """
    t = times[k]
    z = states
    v = z[..., d:]
    b = field.drift(t, z)
    if field.constant_sigma is not None:
        dV = np.einsum("ij,...j->...i", field.constant_sigma, dW)
    else:
        dV = np.einsum("...ij,...j->...i", field.sigma(t, z), dW)
    if scheme == "em":
        dx = v * dt
    else:
        half_dt, chol_x = _exact_noise_factors(field, dt)
        dx = v * dt + half_dt * dV + np.einsum("ij,...j->...i", chol_x, extra_normals)
    x_new = z[..., :d] + dx
    v_new = v + b * dt + dV
    return np.concatenate([x_new, v_new], axis=-1)


def walk(field, z0, brownian, scheme="em", path_offset=0):
    """Step paths one WORK_CHUNK chunk at a time: the package's one loop.

    z0: (2d,), (n, 2d) or a stack of s starts (s, n, 2d).  Path i uses
    stream path_offset + i; row i of every start in a stack uses that
    stream, drawn once per chunk, so each start walks exactly as it
    would alone.  Yields (lo, hi, k, state, dW) for k = 0 .. num_steps of
    each chunk [lo, hi): the fresh ([s,] hi - lo, 2d) state at step k and
    the (hi - lo, d) increment that drives it to k + 1 (None at the last
    step).  A state failing max |z_i| <= DIVERGENCE_THRESHOLD (NaN and
    inf fail it too) raises DivergenceError before it is yielded.
    """
    if scheme not in ("em", "kinetic-exact"):
        raise ValidationError(f"unknown scheme {scheme!r}")
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    d = field.dim
    if z0.shape[-1] != 2 * d or z0.ndim > 3:
        raise ValidationError(f"initial state must be ([s,] [n,] {2 * d})")
    steps, dt, times = brownian.num_steps, brownian.dt, brownian.times
    n = z0.shape[-2]
    for lo in range(0, n, WORK_CHUNK):
        hi = min(lo + WORK_CHUNK, n)
        streams = (path_offset + lo, path_offset + hi)
        if scheme == "kinetic-exact":
            normals = brownian.normals(*streams)
            dws, extras = np.sqrt(dt) * normals[:, :, :d], normals[:, :, d:]
        else:
            dws, extras = brownian.increments(*streams), None
        state = z0[..., lo:hi, :].copy()
        for k in range(steps + 1):
            # NaN fails the comparison; initial keeps an empty stack legal
            if not np.abs(state).max(initial=0.0) <= DIVERGENCE_THRESHOLD:
                raise DivergenceError(
                    f"state diverged past {DIVERGENCE_THRESHOLD:g} at step {k}")
            dW = dws[:, k, :] if k < steps else None
            yield lo, hi, k, state, dW
            if dW is not None:
                extra = extras[:, k, :] if extras is not None else None
                state = _step_batch(field, scheme, times, state, d, k, dt, dW, extra)


def walk_noise_floats(num_paths, num_steps, dim):
    """float64s of noise ``walk`` holds at once: a chunk's normals and the
    increments cut from them, 3 dim per step for min(num_paths, WORK_CHUNK)
    paths."""
    return 3 * dim * num_steps * min(num_paths, WORK_CHUNK)


def map_walk(field, z0, brownian, reduce, scheme="em"):
    """``reduce(steps)`` per WORK_CHUNK chunk [lo, hi) of z0's rows, in row
    order, one `parallel_map` task each: ``steps`` walks the chunk from
    ``path_offset=lo``, on streams lo .. hi - 1 in any process."""
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))

    def task(lo):
        return reduce(walk(field, z0[..., lo:lo + WORK_CHUNK, :], brownian,
                           scheme, path_offset=lo))

    return parallel_map(task, range(0, z0.shape[-2], WORK_CHUNK))


def evolve(field, z0, brownian, scheme="em"):
    """Record every state ``walk`` yields from stream 0 in a Trajectory."""
    lead = np.atleast_2d(np.asarray(z0)).shape[:-1]
    times = brownian.times
    out = np.empty((0, times.size, 2 * field.dim))
    for lo, hi, k, state, _ in walk(field, z0, brownian, scheme):
        if lo == k == 0:
            # allocated once the first chunk's noise has freed its temporaries
            out = np.empty(lead + (times.size, 2 * field.dim))
        out[..., lo:hi, k, :] = state
    return Trajectory(times, out)

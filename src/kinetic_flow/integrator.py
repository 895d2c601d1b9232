"""Path simulation for the kinetic system dX = V dt, dV = b dt + sigma dW.

Noise comes from counter-based Philox streams keyed by (master_seed,
key-chunk), so any (master_seed, path_index, step_index) triple maps to one
increment no matter how work is scheduled; callers reduce paths in fixed
path order, which makes every statistic byte-stable across worker counts.
Two schemes: plain Euler ('em') and 'kinetic-exact', which replaces the
free-flight part of the step with an exact draw from the two-block
Gaussian transition (drift still Euler).  Both consume the same velocity
normals, so the schemes are synchronously coupled under a shared grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError

__all__ = [
    "BrownianGrid",
    "Trajectory",
    "evolve",
    "DIVERGENCE_THRESHOLD",
    "DIVERGENCE_FRACTION",
    "WORK_CHUNK",
]

# paths per Philox key block; fixed so the (seed, path, step) -> increment map
# never depends on scheduling
KEY_CHUNK = 256
# paths per vectorized work unit; fixed for the same reason
WORK_CHUNK = 4096

# a path whose state norm crosses DIVERGENCE_THRESHOLD has diverged; a
# particle run drops such paths and aborts once more than
# DIVERGENCE_FRACTION of them have
DIVERGENCE_THRESHOLD = 1e6
DIVERGENCE_FRACTION = 1e-3
# relative tolerance (times max(1, horizon)) within which a horizon counts
# as a whole number of steps
GRID_TOL = 1e-9


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
        if self.dt <= 0 or self.num_steps < 1 or self.dim < 1:
            raise ValidationError("BrownianGrid needs dt > 0, num_steps >= 1, dim >= 1")

    @classmethod
    def for_horizon(cls, master_seed, horizon, dt, dim):
        horizon, dt = float(horizon), float(dt)
        if horizon <= 0 or dt <= 0:
            raise ValidationError("need horizon > 0 and dt > 0")
        steps = int(round(horizon / dt))
        if steps < 1 or abs(steps * dt - horizon) > GRID_TOL * max(1.0, horizon):
            raise ValidationError(
                f"horizon {horizon:g} is not a whole number of dt = {dt:g} steps")
        return cls(master_seed, dt, steps, dim)

    @property
    def horizon(self):
        return self.dt * self.num_steps

    def normals(self, path_lo, path_hi):
        """Standard normals, shape (path_hi - path_lo, num_steps, 2*dim)."""
        if path_lo < 0 or path_hi <= path_lo:
            raise ValidationError("need 0 <= path_lo < path_hi")
        blocks = []
        lo_block = path_lo // KEY_CHUNK
        hi_block = (path_hi - 1) // KEY_CHUNK
        for blk in range(lo_block, hi_block + 1):
            rng = np.random.Generator(np.random.Philox(key=_philox_key(self.master_seed, blk)))
            # standard_normal fills in C order, so the first rows of a block
            # are the same whether or not the rest is drawn
            rows = min(KEY_CHUNK, path_hi - blk * KEY_CHUNK)
            blocks.append(rng.standard_normal((rows, self.num_steps, 2 * self.dim)))
        stacked = np.concatenate(blocks, axis=0)
        offset = path_lo - lo_block * KEY_CHUNK
        return stacked[offset : offset + (path_hi - path_lo)]

    def increments(self, path_lo, path_hi):
        """Brownian increments, shape (n, num_steps, dim)."""
        return np.sqrt(self.dt) * self.normals(path_lo, path_hi)[:, :, : self.dim]

    def coarsened(self, factor):
        if factor < 1 or self.num_steps % factor != 0:
            raise ValidationError("coarsening factor must divide num_steps")
        return _CoarsenedGrid(self, int(factor))


@dataclass(frozen=True)
class _CoarsenedGrid:
    fine: BrownianGrid
    factor: int

    @property
    def dt(self):
        return self.fine.dt * self.factor

    @property
    def num_steps(self):
        return self.fine.num_steps // self.factor

    @property
    def dim(self):
        return self.fine.dim

    @property
    def horizon(self):
        return self.fine.horizon

    @property
    def master_seed(self):
        return self.fine.master_seed

    def increments(self, path_lo, path_hi):
        fine = self.fine.increments(path_lo, path_hi)
        n, steps, d = fine.shape
        return fine.reshape(n, steps // self.factor, self.factor, d).sum(axis=2)

    def normals(self, path_lo, path_hi):
        raise ValidationError(
            "coarsened grids provide Brownian increments only; "
            "run kinetic-exact on the native grid"
        )


@dataclass
class Trajectory:
    """Time grid plus states, shape (num_paths, num_steps+1, 2d)."""

    times: np.ndarray
    states: np.ndarray

    @property
    def num_paths(self):
        return self.states.shape[0]

    @property
    def phase_dim(self):
        return self.states.shape[-1]


def _exact_noise_factors(field, dt):
    sig = field.constant_sigma
    if sig is None:
        raise ValidationError("kinetic-exact scheme needs a constant-sigma field")
    # conditional split of the joint free-flight Gaussian: the v-noise is the
    # Brownian increment itself, x-noise = (dt/2) * dV + sqrt(dt^3/12) * sigma n
    return 0.5 * dt, np.sqrt(dt**3 / 12.0) * sig


def _step_batch(field, scheme, times, states, d, k, dt, dW, extra_normals):
    t = times[k]
    z = states
    v = z[..., d:]
    b = field.drift(t, z)
    sig = field.sigma(t, z)
    dV = np.einsum("...ij,...j->...i", sig, dW)
    if scheme == "em":
        dx = v * dt
    else:
        half_dt, chol_x = _exact_noise_factors(field, dt)
        dx = v * dt + half_dt * dV + np.einsum("ij,...j->...i", chol_x, extra_normals)
    x_new = z[..., :d] + dx
    v_new = v + b * dt + dV
    return np.concatenate([x_new, v_new], axis=-1)


def _evolve_block(field, z0_block, times, brownian, scheme, stream_lo,
                  stream_hi):
    """Integrate one work chunk driven by noise streams [stream_lo, stream_hi).

    A single stream broadcasts over every row of the block.
    """
    d = field.dim
    steps = len(times) - 1
    if scheme == "kinetic-exact":
        normals = brownian.normals(stream_lo, stream_hi)
        dws = np.sqrt(brownian.dt) * normals[:, :, :d]
        extras = normals[:, :, d:]
    else:
        dws = brownian.increments(stream_lo, stream_hi)
        extras = None
    out = np.empty((z0_block.shape[0], steps + 1, 2 * d))
    out[:, 0, :] = z0_block
    state = z0_block.copy()
    for k in range(steps):
        dW = dws[:, k, :]
        extra = extras[:, k, :] if extras is not None else None
        state = _step_batch(field, scheme, times, state, d, k, brownian.dt, dW, extra)
        out[:, k + 1, :] = state
    return out


def evolve(field, z0, brownian, scheme="em", shared_stream=None, path_offset=0):
    """Integrate a batch of paths; returns a Trajectory.

    z0: (2d,) or (n, 2d).  Per-path noise by default (path i uses stream
    path_offset + i); pass ``shared_stream=j`` to drive every initial point
    with stream j (replica-style coupling).  A NaN/inf state raises
    DivergenceError.
    """
    if scheme not in ("em", "kinetic-exact"):
        raise ValidationError(f"unknown scheme {scheme!r}")
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    if z0.shape[-1] != 2 * field.dim:
        raise ValidationError("initial state dimension mismatch")
    steps = brownian.num_steps
    times = np.linspace(0.0, brownian.horizon, steps + 1)
    n = z0.shape[0]
    out = np.empty((n, steps + 1, 2 * field.dim))
    for lo in range(0, n, WORK_CHUNK):
        hi = min(lo + WORK_CHUNK, n)
        if shared_stream is None:
            streams = (path_offset + lo, path_offset + hi)
        else:
            streams = (shared_stream, shared_stream + 1)
        out[lo:hi] = _evolve_block(field, z0[lo:hi], times, brownian, scheme,
                                   *streams)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("non-finite state encountered during integration")
    return Trajectory(times, out)

"""Pathwise studies of the random flow map z -> Z_t(z, omega).

Everything here rides on synchronous coupling: several initial points are
stepped under the *identical* noise, so differences between trajectories
are differences of the flow map at fixed omega.  One layout does it,
exactly reproducibly: the starts, each tiled across N rows, go through one
``integrator.map_walk`` as a stack, and row i of every start consumes
stream i, so row i across the stack is one omega.  No path is stored, and
only a per-row fold comes back, joined in row order, so no bit depends on
KF_WORKERS.  The moment estimators stack z with its partners or its 4d
perturbations and keep running extrema per row; the homeomorphism check
stacks a grid of points, one row per replica, and keeps each row's state
at the horizon.

The module also carries the discrete stochastic-Gronwall harness: synthetic
processes built to satisfy the Ito-inequality hypothesis by construction,
checked against the moment bound

    || sup_t xi ||_{q0} <= C ( ||zeta_0||_{q1} + || int |zeta1| ds ||_{q2}
                               + || int |zeta2|^2 ds ||_{q3/2}^{1/2} ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRatioError,
    InvalidProcessSpecError,
    ValidationError,
)
from .fields import CoefficientField, mollified
from .integrator import (BrownianGrid, evolve, map_walk, row_norm,
                         tagged_stream)
from .parallel import parallel_map

__all__ = [
    "MomentEstimate",
    "check_path_count",
    "two_point_moment",
    "weak_gradient_moment",
    "phase_grid",
    "HomeomorphismReport",
    "homeomorphism_check",
    "ConvergenceTable",
    "check_convergence_study",
    "convergence_study",
    "GronwallProcessSpec",
    "GronwallCheck",
    "gronwall_corpus",
    "stochastic_gronwall_check",
    "GRONWALL_REFERENCE_C",
]


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    num_paths: int

    @classmethod
    def from_samples(cls, per_path):
        """Mean and standard error of per-path samples, in path order."""
        n = per_path.size
        mean = float(np.mean(per_path))
        se = float(np.std(per_path, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(mean, se, n)


def check_path_count(num_paths):
    """Refuse fewer than 100 paths.  The moment estimators, the convergence
    study and the Gronwall harness call this, and so does the experiment
    config, before any output exists."""
    if num_paths < 100:
        raise ValidationError("need num_paths >= 100")


def _checked_starts(field, starts, orders=(), fewest=2):
    """Refuse a non-finite moment order q of ``orders``, fewer than
    ``fewest`` starts and starts that are not finite states of 2d entries,
    before any noise is drawn; return the starts as one (s, 2d) array."""
    for q in orders:
        if not np.isfinite(q):
            raise ValidationError(f"moment order q must be finite, got {q!r}")
    starts = [np.asarray(z, dtype=float).reshape(-1) for z in starts]
    if any(z.shape != (2 * field.dim,) for z in starts):
        raise ValidationError(f"initial states need {2 * field.dim} entries")
    if len(starts) < fewest:
        raise ValidationError("need at least two points")
    starts = np.stack(starts)
    if not np.all(np.isfinite(starts)):
        raise ValidationError("initial states must be finite")
    return starts


def _coupled_walk(field, starts, num_paths, horizon, dt, master_seed, fold, acc):
    """``acc = fold(acc, state)`` from the given acc over the (s, rows, 2d)
    states of a `walk` of the (s, 2d) ``starts`` tiled over num_paths rows,
    a fold per `map_walk` chunk; the folds keep the rows on axis 1, where
    the chunks' accs are joined in row order."""
    stack = np.broadcast_to(starts[:, None], (len(starts), num_paths,
                                              starts.shape[1]))
    brownian = BrownianGrid.for_horizon(master_seed, horizon, dt, field.dim)

    def rows(steps):
        out = acc
        for _, _, _, state, _ in steps:
            out = fold(out, state)
        return out

    return np.concatenate(map_walk(field, stack, brownian, rows), axis=1)


def two_point_moment(field, z, partners, q, num_paths, horizon, dt, *,
                     master_seed=0):
    """E sup_{t<=T} |Z_t(z) - Z_t(z')|^{2q} / |z - z'|^{2q} under one noise,
    one MomentEstimate per z' of ``partners``, in their order.

    z and its partners walk as one stack; each row keeps a running extremum
    of its separation from z per partner, the bits of that pair alone,
    taken by `integrator.row_norm`.  For q >= 0 that is the maximum; for
    q < 0 the power flips the extremum, so the running *minimum*
    separation is raised to 2q.  q must be finite and lie in [-1, inf):
    moments far below -1 hinge on the extreme left tail of the minimum
    separation, which desk-scale Monte Carlo cannot see.  A partner at z
    reads exactly 0 and needs q >= 0.  A coupled pair whose
    minimum separation underflows to exact zero makes a negative moment
    meaningless and raises DegenerateRatioError.
    """
    check_path_count(num_paths)
    starts = _checked_starts(field, [z, *partners], [q])
    if q < -1.0:
        raise ValidationError("q < -1 not supported (left-tail dominated)")
    gaps = row_norm(starts[0] - starts[1:])
    if q < 0 and np.any(gaps == 0.0):
        raise ValidationError("coincident points need q >= 0")
    # the first separation replaces the initial extremum exactly
    extreme, init = (np.maximum, 0.0) if q >= 0 else (np.minimum, np.inf)

    def fold(ext, state):
        return extreme(ext, row_norm(state[0] - state[1:]))

    ext = _coupled_walk(field, starts, num_paths, horizon, dt, master_seed,
                        fold, init)
    if q < 0 and np.any(ext == 0.0):
        raise DegenerateRatioError(
            "coupled paths collided to floating-point identity; "
            "negative-moment ratio undefined"
        )
    return [MomentEstimate.from_samples((e / gap) ** (2.0 * q)) if gap
            else MomentEstimate(0.0, 0.0, num_paths)
            for e, gap in zip(ext, gaps)]


def weak_gradient_moment(field, z, delta, orders, num_paths, horizon, dt, *,
                         master_seed=0):
    """E sup_{t<=T} ||grad_z Z_t||_F^q by central differences of the flow,
    one MomentEstimate per q of ``orders``, in their order.

    The Jacobian is estimated one column at a time from coupled
    perturbations z +/- delta e_j.  All 4d starts walk as one stack: each
    chunk's noise is drawn once, no path is stored, and each row keeps the
    running maximum of ||grad_z Z_t||_F^2, the squared column norms of
    `integrator.row_norm` added in column order, which every order raises
    to its own power.  Each q must be finite, and an empty ``orders`` is
    refused.
    A finite difference rather than a variational equation is deliberate:
    the drift need not be differentiable, and the object of interest is
    exactly the weak derivative that survives for rough b.
    """
    if not (0.0 < delta <= 1e-1):
        raise ValidationError("delta must lie in (0, 1e-1]")
    orders = list(orders)
    if not orders:
        raise ValidationError("need at least one moment order")
    check_path_count(num_paths)
    starts = _checked_starts(field, [z + s * e for e in delta * np.eye(np.size(z))
                                     for s in (1, -1)], orders)

    def fold(sup2, state):
        cols = (state[0::2] - state[1::2]) / (2.0 * delta)
        # squared column norms, shape (2d, n), added in column order
        frob2 = np.sum(row_norm(cols, squared=True), axis=0, keepdims=True)
        return np.maximum(sup2, frob2)

    sup2 = _coupled_walk(field, starts, num_paths, horizon, dt, master_seed,
                         fold, 0.0)[0]
    return [MomentEstimate.from_samples(sup2 ** (0.5 * q)) for q in orders]


# ---------------------------------------------------------------------------
# the flow map over a grid of initial points


def phase_grid(x_half_width, v_half_width, num_x, num_v):
    """Uniform phase-plane grid, points ordered x-major; returns (points, shape).

    Points are (num_x * num_v, 2); index ix * num_v + iv holds
    (x_grid[ix], v_grid[iv]).  d=1 only: grid-line diagnostics in higher
    dimension would need O(n^{2d}) points.
    """
    if num_x < 2 or num_v < 2:
        raise ValidationError("need at least a 2x2 grid")
    xg = np.linspace(-x_half_width, x_half_width, num_x)
    vg = np.linspace(-v_half_width, v_half_width, num_v)
    pts = np.stack(np.meshgrid(xg, vg, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts, (num_x, num_v)


@dataclass
class HomeomorphismReport:
    """Per-replica injectivity and ordering diagnostics of the flow map."""

    t: float
    min_ratio: np.ndarray      # min over grid pairs of |dZ|/|dz|, per replica
    failures: np.ndarray       # grid-line neighbor violations, per replica
    num_pairs: int

    @property
    def passed(self):
        return bool(np.all(self.min_ratio > 0.0) and np.all(self.failures == 0))


def _line_indices(grid_shape):
    nx, nv = grid_shape
    flat = np.arange(nx * nv).reshape(nx, nv)
    lines = [flat[:, iv] for iv in range(nv)]       # constant v, varying x
    lines += [flat[ix, :] for ix in range(nx)]      # constant x, varying v
    return lines


def _ordering_failures(transported, lines):
    """Count grid-line points whose nearest transported line-mate is not a
    grid neighbor.  An order-preserving embedding of a line keeps adjacency
    of nearest neighbors except under strong folding, so violations proxy a
    loss of invertibility along the line."""
    fails = 0
    for line in lines:
        pts = transported[line]            # (L, 2d)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = row_norm(diff)
        np.fill_diagonal(dist, np.inf)
        nearest = np.argmin(dist, axis=1)
        idx = np.arange(len(line))
        fails += int(np.sum(np.abs(nearest - idx) != 1))
    return fails


def homeomorphism_check(field, points, num_replicas, horizon, dt, *,
                        master_seed=0, grid_shape=None):
    """Injectivity proxy + grid-line ordering for each replica at the horizon.

    The points walk as a stack of starts over num_replicas rows, so row r
    of every point is replica r on stream r: one realization of the flow
    map on the whole grid.  Only each row's state at the horizon is kept.
    min_ratio > 0 for every replica says no two grid points were collapsed
    (a necessary condition for injectivity at the grid's resolution);
    failures counts nearest-neighbor violations along grid lines, the
    discrete stand-in for order-preserving invertibility.  ``grid_shape``
    (nx, nv) from `phase_grid` enables the grid-line diagnostics and must
    hold exactly the points.
    """
    from scipy.spatial.distance import pdist

    if num_replicas < 1:
        raise ValidationError("need num_replicas >= 1")
    points = _checked_starts(field, points)
    d0 = pdist(points)
    if float(d0.min()) == 0.0:
        raise ValidationError("initial grid contains duplicate points")
    if grid_shape is not None and int(np.prod(grid_shape)) != points.shape[0]:
        raise ValidationError(f"grid_shape {tuple(grid_shape)} does not hold "
                              f"the {points.shape[0]} points")
    final = _coupled_walk(field, points, num_replicas, horizon, dt,
                          master_seed, lambda _, state: state, None)
    lines = _line_indices(grid_shape) if grid_shape is not None else []
    replicas = final.swapaxes(0, 1)
    min_ratio = np.array([np.min(pdist(pts) / d0) for pts in replicas])
    failures = np.array([_ordering_failures(pts, lines) for pts in replicas])
    return HomeomorphismReport(float(horizon), min_ratio, failures, d0.size)


# ---------------------------------------------------------------------------
# mollification ladder / strong convergence


@dataclass(frozen=True)
class _LpBox:
    """Centered space box of the space-time L^p distance.

    ``zs`` is the tensor mesh, ``weight`` the trapezoid weights (1/2 at
    box faces), ``cell`` the volume h^{2d} of one mesh cell.
    """

    zs: np.ndarray
    weight: np.ndarray
    cell: float


def _lp_box(dim, box_half_width, points_per_axis=129):
    pd = 2 * dim
    axes = [np.linspace(-box_half_width, box_half_width, points_per_axis)
            for _ in range(pd)]
    mesh = np.meshgrid(*axes, indexing="ij")
    h = axes[0][1] - axes[0][0]
    w = np.ones(points_per_axis)
    w[0] = w[-1] = 0.5
    weight = w
    for _ in range(pd - 1):
        weight = np.multiply.outer(weight, w)
    return _LpBox(np.stack(mesh, axis=-1), weight, h**pd)


def _drift_lp_gap(drift_a, drift_b, box, p, horizon):
    """Space-time L^p distance of two drifts sampled on ``box``.

    (int_0^T ||b_a - b_b||_p^p ds)^{1/p} with tensor trapezoid in space;
    ``drift_a`` and ``drift_b`` hold each drift on the mesh, sampled once
    at t = 0 (the library fields are autonomous), so the time integral is
    T times the space integral.  The box must cover both supports;
    outside it the integrand vanishes.
    """
    mag = row_norm(drift_a - drift_b)
    norm_p = np.sum(box.weight * mag**p) * box.cell
    return float((horizon * norm_p) ** (1.0 / p))


@dataclass
class ConvergenceTable:
    """Mollification ladder: coupled gaps e_n against the envelope B_n."""

    n: np.ndarray
    e: np.ndarray
    e_fine: np.ndarray
    bound: np.ndarray
    dt_ok: np.ndarray
    q: float
    p: float
    dt: float
    num_paths: int

    @property
    def ratio(self):
        return self.e / self.bound

    @property
    def dt_controlled(self):
        return bool(np.all(self.dt_ok))

    def ratio_spread(self):
        r = self.ratio
        if np.any(r <= 0.0):
            raise DegenerateRatioError("zero gap in the ladder; spread undefined")
        return float(r.max() / r.min())

    def slope(self):
        if np.any(self.e <= 0.0):
            raise DegenerateRatioError("zero gap in the ladder; slope undefined")
        coeffs = np.polyfit(np.log(self.n), np.log(self.e), 1)
        return float(coeffs[0])


def check_convergence_study(d, n_ladder, num_paths, p):
    """Refuse what `convergence_study` cannot honour: a ladder that is not
    dyadic with at least 3 entries, p <= 2(2d+1) and fewer than 100 paths
    (check_path_count).
    The experiment config calls this too, before any output exists."""
    ladder = [int(n) for n in n_ladder]
    if len(ladder) < 3:
        raise ValidationError("mollification ladder needs at least 3 entries")
    for a, b in zip(ladder[:-1], ladder[1:]):
        if b != 2 * a:
            raise ValidationError("ladder must be dyadic: each entry twice the last")
    if p <= 2 * (2 * d + 1):
        raise ValidationError(f"need p > {2 * (2 * d + 1)} for the envelope exponent")
    check_path_count(num_paths)


def convergence_study(field, n_ladder, q, num_paths, horizon, dt, p, *,
                      z0=None, master_seed=0, lp_box_half_width=None,
                      lp_points_per_axis=129):
    """Coupled strong-convergence ladder across mollification levels.

    For consecutive ladder entries (n, 2n) the two mollified fields are run
    under identical noise and identical initial states;
    e_n = (E sup_{t<=T} |Z^n_t - Z^{2n}_t|^q)^{1/q} is compared against
    B_n = ||b^n - b^{2n}||_{L^p([0,T] x R^{2d})} + n^{2d/p-1}.

    ``field`` is the base CoefficientField; level n runs mollified(field, n).
    Time-discretization error inside e_n is controlled by evaluating each
    rung on the requested grid and on its dt/2 refinement of the same noise
    (summed-increment coupling); dt_ok records per-rung agreement within
    10%.

    Each ladder level is built, evolved on both grids and sampled on the
    L^p box exactly once, at t = 0 (the library fields are autonomous), as
    one task of `parallel_map` (KF_WORKERS forked worker processes);
    results are gathered in ladder order and every rung is then reduced
    from the two cached levels, so the table does not depend on the worker
    count.  The cache holds every level's coupled paths at once.
    """
    if not isinstance(field, CoefficientField):
        raise ValidationError("field must be a CoefficientField")
    if not (np.isfinite(q) and q > 0):
        raise ValidationError(f"need a finite moment order q > 0, got {q!r}")
    ladder = [int(n) for n in n_ladder]
    d = field.dim
    check_convergence_study(d, ladder, num_paths, p)
    z0 = _checked_starts(field, [np.zeros(2 * d) if z0 is None else z0],
                         fewest=1)[0]
    steps = BrownianGrid.for_horizon(master_seed, horizon, dt, d).num_steps
    fine = BrownianGrid(master_seed, 0.5 * dt, 2 * steps, d)
    coarse = fine.coarsened(2)
    if lp_box_half_width is None:
        lp_box_half_width = max(mollified(field, n).support_radius
                                for n in ladder) + 0.5
    box = _lp_box(d, lp_box_half_width, lp_points_per_axis)
    starts = np.tile(z0, (num_paths, 1))

    def level(n):
        f = mollified(field, n)
        paths = [evolve(f, starts, grid).states for grid in (coarse, fine)]
        return paths, f.drift(0.0, box.zs)

    levels = parallel_map(level, ladder)
    ns, e_coarse, e_fine, bounds, dt_ok = [], [], [], [], []
    for n, (paths_a, drift_a), (paths_b, drift_b) in zip(
            ladder[:-1], levels[:-1], levels[1:]):
        gaps = []
        for sa, sb in zip(paths_a, paths_b):
            sep = row_norm(sa - sb)
            sup = sep.max(axis=1)
            gaps.append(float(np.mean(sup**q) ** (1.0 / q)))
        lp = _drift_lp_gap(drift_a, drift_b, box, p, horizon)
        ns.append(n)
        e_coarse.append(gaps[0])
        e_fine.append(gaps[1])
        bounds.append(lp + float(n) ** (2.0 * d / p - 1.0))
        scale = max(gaps[0], gaps[1], 1e-12)
        dt_ok.append(abs(gaps[0] - gaps[1]) <= 0.1 * scale)
    return ConvergenceTable(np.array(ns, dtype=float), np.array(e_coarse),
                            np.array(e_fine), np.array(bounds),
                            np.array(dt_ok), q, p, dt, num_paths)


# ---------------------------------------------------------------------------
# discrete stochastic Gronwall harness


# Moments of the checked bound.  zeta_0 is deterministic, so its
# q1-norm is zeta_0 for every q1 and q1 never enters the computation.
GRONWALL_Q0 = 2.0
GRONWALL_Q2 = 3.0
GRONWALL_Q3 = 3.0

# Reference constant for the shipped generator family at the moments above
# (q0=2, q1=q2=q3=3).  Calibrated once: the 200 instances of
# gronwall_corpus(200, master_seed=1000) at num_paths=1000 gave a maximal
# fitted constant of 1.591; the shipped value is 1.5x that maximum.
GRONWALL_REFERENCE_C = 2.4
# tagged_stream tag of the Gronwall check's Brownian draw
_GRONWALL_TAG = 0xF10A


@dataclass(frozen=True)
class GronwallProcessSpec:
    """Generator of one synthetic instance of the Ito-inequality setup.

    The comparison process is built to satisfy the hypothesis *with
    equality*: xi is defined by the explicit recursion

        xi_{k+1} = zeta_{k+1} + sum_{j<=k} xi_j beta_j dt
                               + sum_{j<=k} xi_j alpha_j dW_j,

    where zeta_{k+1} = zeta_k + zeta1_k dt + zeta2_k dW_k.  Coefficients
    are bounded by construction (so every exponential moment of
    int |beta| + |alpha|^2 is finite) and chosen positive enough that the
    right side stays nonnegative pathwise:

        zeta1_k = drift_amp * (0.5 + 0.5 cos(2 u_k + phase_drift)) >= 0
        zeta2_k = noise_coupling * zeta_k          (keeps zeta positive)
        beta_k  = beta_amp * (0.6 + 0.4 sin(u_k + phase_beta)) >= 0
        alpha_k = alpha_amp * cos(u_k + phase_alpha)

    with u_k = W_k when state_coupled else t_k.  alpha_amp is capped at
    0.15: larger multiplicative noise puts the q3-moment of the martingale
    term in a heavy tail that desk-scale Monte Carlo underestimates.  A
    negative xi or zeta at any step means the construction left the
    hypothesis class and raises InvalidProcessSpecError.
    """

    zeta0: float
    drift_amp: float
    noise_coupling: float
    beta_amp: float
    alpha_amp: float
    phase_drift: float = 0.0
    phase_beta: float = 0.0
    phase_alpha: float = 0.0
    state_coupled: bool = True
    horizon: float = 1.0
    num_steps: int = 256

    def __post_init__(self):
        if self.zeta0 <= 0.0:
            raise InvalidProcessSpecError("zeta0 must be positive")
        if self.drift_amp < 0.0 or self.beta_amp < 0.0:
            raise InvalidProcessSpecError("amplitudes must be nonnegative")
        if not (0.0 <= self.noise_coupling <= 0.5):
            raise InvalidProcessSpecError("noise_coupling must lie in [0, 0.5]")
        if not (0.0 <= self.alpha_amp <= 0.15):
            raise InvalidProcessSpecError("alpha_amp must lie in [0, 0.15]")
        if self.horizon <= 0.0 or self.num_steps < 8:
            raise InvalidProcessSpecError("need horizon > 0 and num_steps >= 8")

    @classmethod
    def random(cls, seed):
        rng = np.random.default_rng(seed)
        return cls(
            zeta0=float(rng.uniform(0.5, 2.0)),
            drift_amp=float(rng.uniform(0.0, 1.0)),
            noise_coupling=float(rng.uniform(0.0, 0.4)),
            beta_amp=float(rng.uniform(0.0, 0.6)),
            alpha_amp=float(rng.uniform(0.0, 0.15)),
            phase_drift=float(rng.uniform(0.0, 2.0 * np.pi)),
            phase_beta=float(rng.uniform(0.0, 2.0 * np.pi)),
            phase_alpha=float(rng.uniform(0.0, 2.0 * np.pi)),
            state_coupled=bool(rng.random() < 0.8),
        )


def gronwall_corpus(num_instances, master_seed=0):
    """Deterministic list of random instances, seeded by SeedSequence spawn."""
    children = np.random.SeedSequence(master_seed).spawn(num_instances)
    return [GronwallProcessSpec.random(child) for child in children]


@dataclass
class GronwallCheck:
    """Both sides of the moment bound for one instance."""

    lhs: float
    zeta0_term: float
    drift_term: float
    noise_term: float
    fitted_c: float
    passed: bool
    num_paths: int


def stochastic_gronwall_check(spec, num_paths=1000, *, master_seed=0):
    """Simulate one instance and fit the smallest admissible constant.

    Returns the empirical || sup xi ||_{q0}, the three right-hand terms,
    their ratio (the fitted constant), and pass/fail against
    GRONWALL_REFERENCE_C.
    """
    check_path_count(num_paths)
    n, steps = num_paths, spec.num_steps
    dt = spec.horizon / steps
    rng = tagged_stream(master_seed, _GRONWALL_TAG)
    dW = np.sqrt(dt) * rng.standard_normal((n, steps))
    w_left = np.concatenate([np.zeros((n, 1)), np.cumsum(dW, axis=1)], axis=1)
    t_left = dt * np.arange(steps + 1)

    zeta = np.full(n, spec.zeta0)
    xi = np.full(n, spec.zeta0)
    drift_sum = np.zeros(n)      # running int xi beta dt
    mart_sum = np.zeros(n)       # running int xi alpha dW
    abs_drift = np.zeros(n)      # int |zeta1| dt
    sq_noise = np.zeros(n)       # int |zeta2|^2 dt
    sup_xi = xi.copy()
    for k in range(steps):
        u = w_left[:, k] if spec.state_coupled else np.full(n, t_left[k])
        zeta1 = spec.drift_amp * (0.5 + 0.5 * np.cos(2.0 * u + spec.phase_drift))
        zeta2 = spec.noise_coupling * zeta
        beta = spec.beta_amp * (0.6 + 0.4 * np.sin(u + spec.phase_beta))
        alpha = spec.alpha_amp * np.cos(u + spec.phase_alpha)
        drift_sum += xi * beta * dt
        mart_sum += xi * alpha * dW[:, k]
        abs_drift += np.abs(zeta1) * dt
        sq_noise += zeta2 * zeta2 * dt
        zeta = zeta + zeta1 * dt + zeta2 * dW[:, k]
        xi = zeta + drift_sum + mart_sum
        if np.any(zeta <= 0.0) or np.any(xi < 0.0):
            raise InvalidProcessSpecError(
                f"instance left the hypothesis class at step {k + 1} "
                "(negative comparison process)"
            )
        np.maximum(sup_xi, xi, out=sup_xi)

    q0, q2, q3 = GRONWALL_Q0, GRONWALL_Q2, GRONWALL_Q3
    lhs = float(np.mean(sup_xi**q0) ** (1.0 / q0))
    zeta0_term = spec.zeta0
    drift_term = float(np.mean(abs_drift**q2) ** (1.0 / q2))
    noise_term = float(np.mean(sq_noise ** (0.5 * q3)) ** (1.0 / q3))
    fitted_c = lhs / (zeta0_term + drift_term + noise_term)
    return GronwallCheck(lhs, zeta0_term, drift_term, noise_term, fitted_c,
                         bool(fitted_c <= GRONWALL_REFERENCE_C), n)

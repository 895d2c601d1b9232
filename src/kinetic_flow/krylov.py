"""Occupation-integral estimates along simulated kinetic paths.

The quantity under study is E int_{t0}^{t1} f(Z_s) ds for compactly
supported f, bounded by C (t1-t0)^beta ||f||_{L^p([t0,t1] x R^{2d})} with
beta = 1/(2d+1) - 1/p.  The harness fits the smallest such C over a family
of truncated Gaussian bumps and a ladder of windows, then feeds the fitted
constant into the exponential-moment corollaries:

    E (int f)^m        <= m! (C ||f||_{L^p([0,T])} (t1-t0)^beta)^m
    E exp(lam int f)   <= 2^(T (2 C lam ||f||_{L^p([0,T])})^(1/beta))

The MGF bound comes from subadditivity over k = T(2 C lam ||f||)^(1/beta)
subwindows, so it is sharp only when k >= 1; reports carry k so a caller
can see which regime a configuration probes.

Path functionals use per-path trapezoid quadrature on the trajectory grid
and reduce in fixed path order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .errors import ValidationError
from .fields import smooth_plateau
from .flow import MomentEstimate
from .integrator import BrownianGrid, evolve, step_index

__all__ = [
    "PhaseBump",
    "bump_family",
    "occupation_functional",
    "KrylovTable",
    "krylov_ratio",
    "MgfReport",
    "khasminskii_mgf",
    "FactorialReport",
    "moment_factorial_check",
    "check_integrability",
    "krylov_beta",
    "experiment_windows",
    "window_steps",
]

# truncation radius of the bumps, in width units; the cut band contributes
# less than e^{-4.5 p} of the L^p norm, invisible for p >= 3
TRUNCATION_RADII = (3.0, 4.0)
# smallest bump family krylov_ratio fits its constant over
MIN_FAMILY = 20


def check_integrability(d, p, experiment=None):
    """Refuse p <= 2d+1, where the occupation exponent beta is not positive.

    krylov_beta calls this, and so does the experiment config before any
    output exists; ``experiment`` names the config's experiment in the
    refusal.
    """
    if not p > 2 * d + 1:
        if experiment is None:
            raise ValidationError(f"need p > {2 * d + 1}")
        raise ValidationError(
            f"{experiment} needs p > 2d+1 = {2 * d + 1}, got p = {p:g}")


def krylov_beta(d, p):
    """beta = 1/(2d+1) - 1/p of the occupation bound."""
    check_integrability(d, p)
    return 1.0 / (2 * d + 1) - 1.0 / p


@dataclass(frozen=True)
class PhaseBump:
    """Anisotropic Gaussian bump, smoothly truncated to compact support.

    value(z) = amplitude * exp(-|x-cx|^2/(2 wx^2) - |v-cv|^2/(2 wv^2))
    times a plateau cutoff in the scaled radius, equal to 1 inside 3
    widths and 0 outside 4.  The closed-form L^p norm of the untruncated
    Gaussian is used throughout; for p >= 3 the truncated tail changes it
    by less than 1e-5 relatively.
    """

    center: tuple
    x_width: float
    v_width: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.x_width <= 0.0 or self.v_width <= 0.0:
            raise ValidationError("bump widths must be positive")
        if self.amplitude < 0.0:
            raise ValidationError("bump amplitude must be nonnegative")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) % 2 != 0:
            raise ValidationError("center must have even phase dimension")

    @property
    def dim(self):
        return len(self.center) // 2

    def value(self, z):
        z = np.asarray(z, dtype=float)
        d = self.dim
        c = np.asarray(self.center)
        dx = (z[..., :d] - c[:d]) / self.x_width
        dv = (z[..., d:] - c[d:]) / self.v_width
        rho2 = np.einsum("...i,...i->...", dx, dx) + np.einsum(
            "...i,...i->...", dv, dv)
        rho = np.sqrt(rho2)
        lo, hi = TRUNCATION_RADII
        return self.amplitude * np.exp(-0.5 * rho2) * smooth_plateau(rho, lo, hi)

    def lp_norm(self, p):
        """||f||_{L^p(R^{2d})} of the untruncated Gaussian, closed form."""
        if p <= 0:
            raise ValidationError("need p > 0")
        d = self.dim
        return self.amplitude * (
            2.0 * np.pi * self.x_width * self.v_width / p) ** (d / p)

    def spacetime_norm(self, p, t0, t1):
        """||f||_{L^p([t0,t1] x R^{2d})} for the (static) bump."""
        if t1 <= t0:
            raise ValidationError("need t1 > t0")
        return (t1 - t0) ** (1.0 / p) * self.lp_norm(p)

    @property
    def support_radius(self):
        reach = TRUNCATION_RADII[1] * max(self.x_width, self.v_width)
        return float(np.linalg.norm(self.center)) + reach


# Width ladder spanning the kinetic spread (x ~ l^{3/2}, v ~ l^{1/2}) of
# window lengths l in [1/16, 1].  The ladder is deliberately band-limited:
# the occupation/norm ratio of a width-matched bump scales like
# l^{1 - beta - 3/p}, so a family with members far wider than the longest
# window's spread exhibits a window-dependent fitted constant no matter
# how the windows are chosen.
DEFAULT_WIDTH_PAIRS = (
    (0.0156, 0.25), (0.04, 0.4), (0.05, 0.05), (0.15, 0.15),
)
# half-widths of the (x, v) box the Halton centers fill
CENTER_BOX = (1.5, 2.0)
# The family amplitude matters only to the exponential-moment checks,
# where both sides scale differently: 3 keeps the family's MGF tests
# inside the regime where the subadditive 2^k bound is active (k >= 1 at
# lambda = 1 for the family's fitted constant); occupation ratios are
# amplitude-invariant.
FAMILY_AMPLITUDE = 3.0


def bump_family(num_members=20):
    """Family of bumps with quasi-random centers and laddered widths.

    The first len(DEFAULT_WIDTH_PAIRS) members sit at the origin (one per
    width pair), so the family probes the ensemble's starting point at
    every width scale; remaining centers come from an unscrambled Halton
    sequence over the CENTER_BOX rectangle (deterministic), width pairs
    cycling.  Every member has amplitude FAMILY_AMPLITUDE.  d=1.
    """
    if num_members < 1:
        raise ValidationError("need at least one bump")
    pairs = DEFAULT_WIDTH_PAIRS
    sampler = qmc.Halton(d=2, scramble=False)
    pts = sampler.random(num_members)
    hi = np.array(CENTER_BOX)
    lo = -hi
    centers = lo + pts * (hi - lo)
    bumps = []
    anchor = np.zeros(2)
    for i in range(num_members):
        wx, wv = pairs[i % len(pairs)]
        where = anchor if i < len(pairs) else centers[i]
        bumps.append(PhaseBump(tuple(where), wx, wv, FAMILY_AMPLITUDE))
    return bumps


def experiment_windows(horizon):
    """The krylov experiment's occupation windows for a config horizon T,
    on an ensemble run to 2T."""
    return [(0.0, 0.5 * horizon), (0.0, horizon), (0.0, 2.0 * horizon),
            (0.5 * horizon, horizon)]


def window_steps(window, dt, horizon, origin=0.0):
    """Grid steps (i0, i1) of a window (t0, t1) on the dt grid from origin
    to horizon: both ends pass ``integrator.step_index`` and t0 < t1."""
    i0, i1 = (step_index(t, dt, horizon, origin) for t in window)
    if i0 >= i1:
        raise ValidationError(f"window {tuple(window)} must end after it starts")
    return i0, i1


def _window_occupation(trajectory, fn, steps, dt):
    """Per-path trapezoid of fn(Z_s) over the grid steps (i0, i1) at step
    dt."""
    i0, i1 = steps
    vals = fn(trajectory.states[:, i0:i1 + 1, :])
    w = np.full(i1 - i0 + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return vals @ w


def _simulate(field, z0, num_paths, horizon, dt, master_seed, windows,
              trajectory=None):
    """Grid steps of each window, then the ensemble they index.

    The ensemble is num_paths paths started at z0 on the dt grid to
    horizon, or ``trajectory`` if given, which must be num_paths paths on
    that grid.  Every window passes ``window_steps`` on the grid, and a
    given ensemble is checked, before any path is simulated or reduced.
    """
    brownian = BrownianGrid.for_horizon(master_seed, horizon, dt, field.dim)
    # evolve's time grid, linspace(0, brownian.horizon, num_steps + 1)
    grid_dt = brownian.horizon / brownian.num_steps
    steps = [window_steps(w, grid_dt, brownian.horizon) for w in windows]
    if trajectory is not None:
        on_grid = np.array_equal(step_index(trajectory.times, dt, horizon),
                                 np.arange(brownian.num_steps + 1))
        if not on_grid or trajectory.states.shape[:-2] != (num_paths,):
            raise ValidationError(
                f"trajectory must be {num_paths} paths on the dt = {dt:g} "
                f"grid to T = {horizon:g}")
        return trajectory, steps
    z0 = np.zeros(2 * field.dim) if z0 is None else np.asarray(z0, dtype=float)
    return evolve(field, np.tile(z0, (num_paths, 1)), brownian), steps


def occupation_functional(trajectory, f, t0, t1):
    """Per-path trapezoid quadrature of f along the paths, averaged.

    f is any callable of phase points broadcasting over leading axes
    (PhaseBump instances qualify).  Returns mean +- SE over paths, reduced
    in path order.
    """
    fn = f.value if hasattr(f, "value") else f
    times = trajectory.times
    dt = times[1] - times[0]
    steps = window_steps((t0, t1), dt, times[-1], times[0])
    return MomentEstimate.from_samples(
        _window_occupation(trajectory, fn, steps, dt))


@dataclass
class KrylovTable:
    """Per-(bump, window) occupation ratios and the fitted constant."""

    f_ids: list
    windows: list                 # (t0, t1) pairs, one row per (bump, window)
    estimates: np.ndarray
    std_errors: np.ndarray
    norms: np.ndarray             # ||f||_{L^p(window)}
    ratios: np.ndarray
    p: float
    beta: float

    @property
    def fitted_c(self):
        return float(self.ratios.max())

    def window_constants(self):
        """Fitted constant per distinct window (max over the family)."""
        out = {}
        for w, r in zip(self.windows, self.ratios):
            out[w] = max(out.get(w, 0.0), float(r))
        return out

    def window_stability(self):
        consts = list(self.window_constants().values())
        if min(consts) <= 0.0:
            raise ValidationError("zero fitted constant in a window")
        return float(max(consts) / min(consts))


def krylov_ratio(field, bumps, p, windows, num_paths, horizon, dt, *,
                 z0=None, master_seed=0, restart=False):
    """Occupation/norm ratios over a bump family and a window ladder.

    For each bump f and window [t0, t1] the ratio

        E int_{t0}^{t1} f(Z_s) ds / ((t1-t0)^beta ||f||_{L^p([t0,t1]xR^2d)})

    is estimated on one shared ensemble started at z0; the fitted constant
    is the maximum.  With ``restart=True``, windows with t0 > 0 are also
    run from the time-t0 empirical states with fresh noise, a one-step
    stand-in for the conditional form of the estimate; restarted rows get
    f_id suffixed with '|r'.
    """
    if len(bumps) < MIN_FAMILY:
        raise ValidationError(f"bump family needs >= {MIN_FAMILY} members")
    for i, f in enumerate(bumps):
        if f.dim != field.dim:
            raise ValidationError(
                f"bump {i} has dimension {f.dim}, the field {field.dim}")
        if f.lp_norm(p) == 0.0:
            raise ValidationError(f"bump {i} has zero norm")
    beta = krylov_beta(field.dim, p)
    win_list = [tuple(map(float, w)) for w in windows]
    traj, win_steps = _simulate(field, z0, num_paths, horizon, dt,
                                master_seed, win_list)
    steps = len(traj.times) - 1

    f_ids, rows_w, ests, ses, norms, ratios = [], [], [], [], [], []

    def add_rows(trajectory, t0, t1, suffix=""):
        for i, f in enumerate(bumps):
            est = occupation_functional(trajectory, f, t0, t1)
            nrm = f.spacetime_norm(p, t0, t1)
            f_ids.append(f"b{i:02d}{suffix}")
            rows_w.append((t0, t1))
            ests.append(est.value)
            ses.append(est.std_error)
            norms.append(nrm)
            ratios.append(est.value / ((t1 - t0) ** beta * nrm))

    for (t0, t1) in win_list:
        add_rows(traj, t0, t1)
    if restart:
        for (t0, t1), (i0, _) in zip(win_list, win_steps):
            if t0 <= 0.0:
                continue
            sub = BrownianGrid(master_seed + 104729, dt, steps - i0, field.dim)
            re_traj = evolve(field, traj.states[:, i0, :], sub)
            re_traj.times = re_traj.times + t0
            add_rows(re_traj, t0, t1, suffix="|r")
    return KrylovTable(f_ids, rows_w, np.array(ests), np.array(ses),
                       np.array(norms), np.array(ratios), p, beta)


@dataclass
class MgfReport:
    """Empirical exponential moments against the closed-form bound."""

    lam: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    passed: np.ndarray
    max_exponent: np.ndarray
    subwindows: np.ndarray     # T (2 C lam ||f||)^(1/beta); bound sharp for >= 1

    @property
    def all_passed(self):
        return bool(np.all(self.passed))


def khasminskii_mgf(field, f, lam, t0, t1, num_paths, horizon, dt, *,
                    fitted_c, p, z0=None, master_seed=0, trajectory=None):
    """Monte Carlo MGF of the occupation integral against the 2^k bound.

    bound = 2^(T (2 C lam ||f||_{L^p([0,T]x R^2d)})^(1/beta)) with C the
    fitted constant from `krylov_ratio`.  An empirical exponent that would
    overflow is reported as a failure carrying the max exponent.  lam may
    be a scalar or a ladder; lam = 0 gives MGF exactly 1.  Pass
    ``trajectory`` to reuse an already simulated ensemble (a corpus sweep
    shares one); it must be num_paths paths on the dt grid to horizon.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam < 0.0):
        raise ValidationError("lambda must be nonnegative")
    if fitted_c <= 0.0:
        raise ValidationError("need a positive fitted constant")
    beta = krylov_beta(field.dim, p)
    traj, (steps,) = _simulate(field, z0, num_paths, horizon, dt, master_seed,
                               [(t0, t1)], trajectory)
    occ = _window_occupation(traj, f.value, steps, dt)
    norm_t = f.spacetime_norm(p, 0.0, horizon)

    emps, bounds, passes, maxes, ks = [], [], [], [], []
    for lv in lam:
        expo = lv * occ
        mx = float(expo.max())
        emp = math.inf if mx > 700.0 else float(np.mean(np.exp(expo)))
        k = horizon * (2.0 * fitted_c * lv * norm_t) ** (1.0 / beta)
        with np.errstate(over="ignore"):
            bnd = float(2.0 ** k)
        emps.append(emp)
        bounds.append(bnd)
        passes.append(emp <= bnd)
        maxes.append(mx)
        ks.append(k)
    return MgfReport(lam, np.array(emps), np.array(bounds),
                     np.array(passes, dtype=bool), np.array(maxes),
                     np.array(ks))


@dataclass
class FactorialReport:
    """Empirical moments of the occupation integral vs m! (C ||f|| l^beta)^m."""

    m: np.ndarray
    moments: np.ndarray
    bounds: np.ndarray
    passed: np.ndarray

    @property
    def all_passed(self):
        return bool(np.all(self.passed))


def moment_factorial_check(field, f, m_ladder, t0, t1, num_paths, horizon,
                           dt, *, fitted_c, p, z0=None, master_seed=0,
                           trajectory=None):
    """m-th moments of int f(Z) ds against the factorial bound.

    A given ``trajectory`` must be num_paths paths on the dt grid to
    horizon, as in `khasminskii_mgf`.
    """
    m_ladder = [int(m) for m in m_ladder]
    if not m_ladder or any(m < 1 or m > 6 for m in m_ladder):
        raise ValidationError("m ladder must be a nonempty subset of {1,...,6}")
    beta = krylov_beta(field.dim, p)
    traj, (steps,) = _simulate(field, z0, num_paths, horizon, dt, master_seed,
                               [(t0, t1)], trajectory)
    occ = _window_occupation(traj, f.value, steps, dt)
    unit = fitted_c * f.spacetime_norm(p, 0.0, horizon) * (t1 - t0) ** beta
    ms, moments, bounds, passes = [], [], [], []
    for m in m_ladder:
        mom = float(np.mean(occ**m))
        bnd = math.factorial(m) * unit**m
        ms.append(m)
        moments.append(mom)
        bounds.append(bnd)
        passes.append(mom <= bnd)
    return FactorialReport(np.array(ms), np.array(moments), np.array(bounds),
                           np.array(passes, dtype=bool))

"""Particle transport of the forward measure and its weak-form checks.

The measure-valued solution of the forward (Fokker-Planck) equation is
represented by its defining pairing mu_t(phi) = E phi(Z_t): N independent
atoms pushed through the path integrator, uniform weights.  No density
grid is ever built; with a drift this rough the adjoint operator has no
stable grid discretization, and the particle form is the object the
theory actually speaks about.

Three consistency instruments live here:

* ``weak_residual`` turns the distributional identity
  d/dt mu_t(phi) = mu_t(L phi) into a per-atom telescoping sum whose mean
  isolates time-discretization bias from Monte Carlo noise,
* ``exact_measure_constant`` gives the closed-form Gaussian law of the
  zero-drift constant-diffusion system for cross-validation,
* ``measure_distance`` compares empirical or Gaussian measures by sliced
  1-Wasserstein projections or a fixed Lipschitz test dictionary.

Test functions carry analytic derivative closures; nothing in the weak
form is differentiated numerically.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm as _norm, qmc

from .errors import (
    DegenerateRatioError,
    DivergenceError,
    ValidationError,
)
from .integrator import (
    DIVERGENCE_FRACTION,
    DIVERGENCE_THRESHOLD,
    BrownianGrid,
    evolve,
)
from .kernel import kernel_covariance

__all__ = [
    "InitialLaw",
    "point_mass",
    "gaussian_cloud",
    "uniform_ball",
    "EmpiricalMeasure",
    "particle_measure",
    "checkpoints_to_csv",
    "TestFunction",
    "monomial_bump",
    "test_dictionary",
    "ResidualTable",
    "weak_residual",
    "GaussianMeasure",
    "exact_measure_constant",
    "measure_distance",
    "two_sample_floor",
    "RefinementStudy",
    "residual_refinement_study",
]

_INIT_TAG = 0xA701       # atom initial draw
_GAUSS_TAG = 0x6AC1      # GaussianMeasure.sample
_SLICE_TAG = 0xD120      # sliced-distance directions
_GRID_TOL = 1e-9


def _generator(master_seed, tag):
    return np.random.Generator(np.random.Philox(key=[int(master_seed), tag]))


# ---------------------------------------------------------------------------
# initial laws


@dataclass(frozen=True)
class InitialLaw:
    """Initial atom distribution: point mass, Gaussian cloud, or uniform ball.

    ``center`` is a phase-space point (2d,); ``scale`` is the Gaussian
    standard deviation or the ball radius (ignored for a point mass).
    """

    kind: str
    center: np.ndarray
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("point", "gaussian", "ball"):
            raise ValidationError(
                f"unknown initial law {self.kind!r}; choose point, gaussian, ball"
            )
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1 or center.shape[0] % 2 != 0:
            raise ValidationError("initial-law center must be a flat (2d,) state")
        if not np.all(np.isfinite(center)):
            raise ValidationError("initial-law center must be finite")
        if self.kind != "point" and not self.scale > 0:
            raise ValidationError(f"{self.kind} law needs scale > 0")
        object.__setattr__(self, "center", center)

    @property
    def phase_dim(self):
        return self.center.shape[0]

    def sample(self, num_atoms, rng):
        n = int(num_atoms)
        if n < 1:
            raise ValidationError("need at least one atom")
        if self.kind == "point":
            return np.tile(self.center, (n, 1))
        if self.kind == "gaussian":
            return self.center + self.scale * rng.standard_normal((n, self.phase_dim))
        # uniform on the solid ball: direction times radius^(1/dim) law
        raw = rng.standard_normal((n, self.phase_dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = self.scale * rng.random(n) ** (1.0 / self.phase_dim)
        return self.center + radii[:, None] * raw


def point_mass(z):
    return InitialLaw("point", z)


def gaussian_cloud(center, scale):
    return InitialLaw("gaussian", center, float(scale))


def uniform_ball(center, radius):
    return InitialLaw("ball", center, float(radius))


# ---------------------------------------------------------------------------
# empirical measures


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted atoms of the particle measure at one time.

    ``atom_ids`` are the originating path indices, shared across the
    checkpoints of one run so per-atom quantities can telescope in time.
    Total mass is exactly 1 by construction.
    """

    t: float
    atoms: np.ndarray
    atom_ids: np.ndarray
    total_requested: int

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        ids = np.asarray(self.atom_ids, dtype=np.int64)
        if atoms.ndim != 2 or atoms.shape[-1] % 2 != 0:
            raise ValidationError("atoms must have shape (n, 2d)")
        if atoms.shape[0] < 1:
            raise ValidationError("empirical measure needs at least one atom")
        if ids.shape != (atoms.shape[0],):
            raise ValidationError("atom_ids must align with atoms")
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("atoms must be finite")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "atom_ids", ids)

    @property
    def num_atoms(self):
        return self.atoms.shape[0]

    @property
    def dim(self):
        return self.atoms.shape[-1] // 2

    @property
    def mass(self):
        return 1.0

    def expectation(self, fn):
        """Pairing mu(fn) with a standard-error estimate."""
        vals = np.asarray(fn(self.atoms), dtype=float)
        if vals.shape != (self.num_atoms,):
            raise ValidationError("test function must map (n, 2d) to (n,)")
        se = vals.std(ddof=1) / np.sqrt(self.num_atoms) if self.num_atoms > 1 else 0.0
        return float(vals.mean()), float(se)


def particle_measure(field, law, num_atoms, horizon, dt, checkpoints=None, *,
                     scheme="em", master_seed=0):
    """Evolve ``num_atoms`` independent draws of ``law`` and snapshot them.

    Returns one EmpiricalMeasure per checkpoint (default: every grid
    time).  Atoms whose trajectory norm crosses DIVERGENCE_THRESHOLD are
    dropped from all checkpoints and from ``atom_ids``; more than
    DIVERGENCE_FRACTION of them raises DivergenceError, as does any
    non-finite state.
    """
    if not all(hasattr(field, attr) for attr in ("dim", "drift", "sigma")):
        raise ValidationError("field must provide dim, drift and sigma")
    if law.phase_dim != 2 * field.dim:
        raise ValidationError("initial law dimension does not match the field")
    horizon = float(horizon)
    dt = float(dt)
    if horizon <= 0 or dt <= 0:
        raise ValidationError("need horizon > 0 and dt > 0")
    steps = int(round(horizon / dt))
    if steps < 1 or abs(steps * dt - horizon) > _GRID_TOL * max(1.0, horizon):
        raise ValidationError("horizon must be an integer number of dt steps")
    times = np.linspace(0.0, horizon, steps + 1)
    if checkpoints is None:
        check_idx = np.arange(steps + 1)
    else:
        check_idx = _checkpoint_indices(times, checkpoints, horizon)

    atoms0 = law.sample(num_atoms, _generator(master_seed, _INIT_TAG))
    grid = BrownianGrid(master_seed, dt, steps, field.dim)
    traj = evolve(field, atoms0, grid, scheme=scheme)

    sup_norm = np.max(np.linalg.norm(traj.states, axis=-1), axis=1)
    keep = sup_norm <= DIVERGENCE_THRESHOLD
    dropped = int(num_atoms - keep.sum())
    if dropped > DIVERGENCE_FRACTION * num_atoms:
        raise DivergenceError(
            f"{dropped}/{num_atoms} atoms diverged "
            f"(> {DIVERGENCE_FRACTION:.1e} allowed)"
        )
    ids = np.flatnonzero(keep)
    return [
        EmpiricalMeasure(float(times[j]), traj.states[keep, j, :], ids, num_atoms)
        for j in check_idx
    ]


def _checkpoint_indices(times, checkpoints, horizon):
    req = np.asarray(checkpoints, dtype=float)
    if req.ndim != 1 or req.size < 1:
        raise ValidationError("checkpoints must be a nonempty 1d sequence")
    if np.any(np.diff(req) <= 0):
        raise ValidationError("checkpoints must be strictly increasing")
    tol = _GRID_TOL * max(1.0, horizon)
    idx = np.searchsorted(times, req - tol)
    if np.any(idx >= times.size) or np.any(np.abs(times[np.minimum(idx, times.size - 1)] - req) > tol):
        raise ValidationError("every checkpoint must lie on the time grid")
    return idx


def checkpoints_to_csv(measures, path):
    """Atom table across checkpoints: t, atom_id, coordinates."""
    if not measures:
        raise ValidationError("no checkpoints to write")
    d = measures[0].dim
    header = (["t", "atom_id"]
              + [f"x{i+1}" for i in range(d)]
              + [f"v{i+1}" for i in range(d)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for mu in measures:
            for aid, z in zip(mu.atom_ids, mu.atoms):
                writer.writerow([f"{mu.t:.17g}", str(int(aid))]
                                + [f"{c:.17g}" for c in z])


# ---------------------------------------------------------------------------
# test functions with analytic derivative closures

# C^2 glue: quintic step with vanishing first and second derivatives at
# both ends, so cut * polynomial members stay twice differentiable.


def _step(u):
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _step_d1(u):
    return 30.0 * u * u * (u - 1.0) ** 2


def _step_d2(u):
    return 60.0 * u * (2.0 * u - 1.0) * (u - 1.0)


def _cut_pieces(s, r_in, r_out):
    """Value, first, second derivative of the 1d plateau cutoff at s."""
    s = np.asarray(s, dtype=float)
    width = r_out - r_in
    u = np.clip((np.abs(s) - r_in) / width, 0.0, 1.0)
    ramp = (np.abs(s) > r_in) & (np.abs(s) < r_out)
    sgn = np.sign(s)
    val = 1.0 - _step(u)
    d1 = np.where(ramp, -_step_d1(u) * sgn / width, 0.0)
    d2 = np.where(ramp, -_step_d2(u) / width**2, 0.0)
    return val, d1, d2


@dataclass(frozen=True)
class TestFunction:
    """Scalar phase-space observable with analytic derivative closures.

    ``grad_x``/``grad_v`` map (n, 2d) states to (n, d); ``hess_v`` to
    (n, d, d).  Members missing a closure are rejected by the weak form:
    the generator needs exact derivatives so the residual measures time
    discretization and nothing else.
    """

    __test__ = False        # not a pytest collection target

    name: str
    value: callable
    grad_x: callable = None
    grad_v: callable = None
    hess_v: callable = None

    def generator_apply(self, field, t, z):
        """(v . grad_x + b . grad_v + a : hess_v) applied at states z."""
        if self.grad_x is None or self.grad_v is None or self.hess_v is None:
            raise ValidationError(
                f"test function {self.name!r} lacks derivative closures; "
                "the weak form needs C^2 members"
            )
        z = np.asarray(z, dtype=float)
        d = field.dim
        v = z[..., d:]
        drift = field.drift(t, z)
        a = field.generator_a(t, z)
        transport = np.sum(v * self.grad_x(z), axis=-1)
        forcing = np.sum(drift * self.grad_v(z), axis=-1)
        diffusion = np.einsum("...ij,...ij->...", a, self.hess_v(z))
        return transport + forcing + diffusion

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(
            name=f"const[{c:g}]",
            value=lambda z: np.full(np.asarray(z).shape[:-1], c),
            grad_x=lambda z: np.zeros(np.asarray(z).shape[:-1] + (np.asarray(z).shape[-1] // 2,)),
            grad_v=lambda z: np.zeros(np.asarray(z).shape[:-1] + (np.asarray(z).shape[-1] // 2,)),
            hess_v=lambda z: np.zeros(np.asarray(z).shape[:-1] + (np.asarray(z).shape[-1] // 2,) * 2),
        )


def monomial_bump(x_power, v_power, *, r_in=2.5, r_out=4.0, name=None):
    """x^i v^j times separable plateau cutoffs in x and v (d=1 only).

    Compactly supported, identically x^i v^j on the plateau square, and
    C^2 through the quintic glue.  All derivative closures are closed
    form.
    """
    i, j = int(x_power), int(v_power)
    if i < 0 or j < 0:
        raise ValidationError("monomial powers must be nonnegative")
    if not 0.0 < r_in < r_out:
        raise ValidationError("need 0 < r_in < r_out")
    label = name or f"x{i}v{j}[{r_in:g},{r_out:g}]"

    def split(z):
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != 2:
            raise ValidationError("monomial test functions are one dimensional")
        return z[..., 0], z[..., 1]

    def mono(s, k):
        return s ** k if k > 0 else np.ones_like(s)

    def mono_d1(s, k):
        return k * s ** (k - 1) if k >= 1 else np.zeros_like(s)

    def mono_d2(s, k):
        return k * (k - 1) * s ** (k - 2) if k >= 2 else np.zeros_like(s)

    def value(z):
        x, v = split(z)
        cx, _, _ = _cut_pieces(x, r_in, r_out)
        cv, _, _ = _cut_pieces(v, r_in, r_out)
        return mono(x, i) * cx * mono(v, j) * cv

    def grad_x(z):
        x, v = split(z)
        cx, cx1, _ = _cut_pieces(x, r_in, r_out)
        cv, _, _ = _cut_pieces(v, r_in, r_out)
        gx = (mono_d1(x, i) * cx + mono(x, i) * cx1) * mono(v, j) * cv
        return gx[..., None]

    def grad_v(z):
        x, v = split(z)
        cx, _, _ = _cut_pieces(x, r_in, r_out)
        cv, cv1, _ = _cut_pieces(v, r_in, r_out)
        gv = mono(x, i) * cx * (mono_d1(v, j) * cv + mono(v, j) * cv1)
        return gv[..., None]

    def hess_v(z):
        x, v = split(z)
        cx, _, _ = _cut_pieces(x, r_in, r_out)
        cv, cv1, cv2 = _cut_pieces(v, r_in, r_out)
        hv = mono(x, i) * cx * (
            mono_d2(v, j) * cv + 2.0 * mono_d1(v, j) * cv1 + mono(v, j) * cv2
        )
        return hv[..., None, None]

    return TestFunction(label, value, grad_x, grad_v, hess_v)


_DICTIONARY_POWERS = (
    (0, 0), (1, 0), (0, 1), (2, 0), (0, 2),
    (1, 1), (2, 1), (1, 2), (0, 3), (3, 0),
)


def test_dictionary():
    """Default weak-form dictionary: 12 monomial-times-bump members, d=1.

    Ten monomials at the standard radii plus two repeats at shifted
    radii, so support effects do not share one cutoff scale.
    """
    members = [monomial_bump(i, j) for i, j in _DICTIONARY_POWERS]
    members.append(monomial_bump(0, 1, r_in=1.5, r_out=2.5, name="x0v1[narrow]"))
    members.append(monomial_bump(1, 0, r_in=3.0, r_out=5.0, name="x1v0[wide]"))
    return members


# ---------------------------------------------------------------------------
# weak-form residual


@dataclass
class ResidualTable:
    """Per test-function residual history with Monte Carlo errors.

    ``residuals[i, j]`` is R(t_j) for member i at checkpoint times[j];
    ``integrability`` is the left-endpoint quadrature of
    mu_s(|v| + |b_s|), the admissibility gate of the measure class.
    """

    phi_names: list
    times: np.ndarray
    residuals: np.ndarray
    std_errors: np.ndarray
    integrability: float
    num_atoms: int

    def final_residuals(self):
        return self.residuals[:, -1]

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["phi_id", "t", "residual", "se"])
            for name, res, se in zip(self.phi_names, self.residuals,
                                     self.std_errors):
                for t, r, s in zip(self.times, res, se):
                    writer.writerow([name, f"{t:.17g}", f"{r:.17g}",
                                     f"{s:.17g}"])


def weak_residual(measures, field, test_set, dt=None, *,
                  control_variate=False):
    """Weak-form defect R(t) = mu_t(phi) - mu_0(phi) - sum_s mu_s(L phi) dt.

    ``measures`` must be the checkpoints of one particle run on the full
    uniform time grid (shared atoms); the generator term uses
    left-endpoint quadrature, matching the explicit integrator so the
    residual order stays clean.  Standard errors come from the per-atom
    telescoped residuals, which is what makes the Monte Carlo floor
    measurable alongside the bias.

    ``control_variate`` subtracts the discrete martingale
    sum_k grad_v phi(Z_k) . (dV_k - b dt) per atom.  The subtracted term
    recovers sigma dW exactly (both schemes step the velocity that way)
    and has mean zero, so the estimator stays unbiased while the Monte
    Carlo variance drops from O(1) to O(dt); refinement studies need
    this to see the bias at fine steps.  Off by default: the reported
    residual is then literally the pairing defect above.
    """
    if len(measures) < 2:
        raise ValidationError("need at least two checkpoints for a residual")
    times = np.array([m.t for m in measures], dtype=float)
    gaps = np.diff(times)
    if np.any(gaps <= 0) or np.ptp(gaps) > _GRID_TOL * max(1.0, times[-1]):
        raise ValidationError("checkpoints must form a uniform time grid")
    grid_dt = float(gaps[0])
    if dt is not None and abs(grid_dt - dt) > _GRID_TOL * max(1.0, dt):
        raise ValidationError("stated dt disagrees with the checkpoint grid")
    ids = measures[0].atom_ids
    for m in measures[1:]:
        if not np.array_equal(m.atom_ids, ids):
            raise ValidationError("checkpoints do not share their atom set")
    if not test_set:
        raise ValidationError("empty test set")

    states = np.stack([m.atoms for m in measures])      # (m, n, 2d)
    n_check, n_atoms = states.shape[0], states.shape[1]
    d = field.dim
    speed = np.linalg.norm(states[..., d:], axis=-1)
    drift = np.stack([
        np.asarray(field.drift(t, z), dtype=float).reshape(n_atoms, d)
        for t, z in zip(times, states)
    ])
    drift_norm = np.linalg.norm(drift, axis=-1)
    gate = float(grid_dt * np.mean(speed[:-1] + drift_norm[:-1], axis=1).sum())
    if control_variate:
        # sigma dW_k, read back off the velocity update
        noise = (states[1:, :, d:] - states[:-1, :, d:]
                 - grid_dt * drift[:-1])                 # (m-1, n, d)

    names, res_rows, se_rows = [], [], []
    for phi in test_set:
        vals = np.stack([phi.value(z) for z in states])
        gen = np.stack([
            phi.generator_apply(field, t, z) for t, z in zip(times, states)
        ])
        # per-atom telescoped residual at every checkpoint past t_0
        accum = np.concatenate([
            np.zeros((1, n_atoms)), grid_dt * np.cumsum(gen[:-1], axis=0)
        ])
        per_atom = vals - vals[0] - accum                # (m, n)
        if control_variate:
            gv = np.stack([phi.grad_v(z) for z in states[:-1]])
            steps_mg = np.sum(gv * noise, axis=-1)
            per_atom[1:] -= np.cumsum(steps_mg, axis=0)
        res_rows.append(per_atom[1:].mean(axis=1))
        se_rows.append(per_atom[1:].std(axis=1, ddof=1) / np.sqrt(n_atoms))
        names.append(phi.name)
    return ResidualTable(
        phi_names=names,
        times=times[1:],
        residuals=np.array(res_rows),
        std_errors=np.array(se_rows),
        integrability=gate,
        num_atoms=n_atoms,
    )


# ---------------------------------------------------------------------------
# exact Gaussian law for zero drift, constant diffusion


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian phase-space law: mean (2d,) and covariance (2d, 2d)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValidationError("mean must be (2d,) with matching covariance")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValidationError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def dim(self):
        return self.mean.size // 2

    def _factor(self):
        # allow the degenerate t = 0 point mass: eigendecomposition instead
        # of Cholesky
        w, q = np.linalg.eigh(self.cov)
        if np.min(w) < -1e-10 * max(1.0, np.max(np.abs(w))):
            raise ValidationError("covariance is not positive semidefinite")
        return q * np.sqrt(np.clip(w, 0.0, None))

    def sample(self, num_atoms, master_seed=0):
        rng = _generator(master_seed, _GAUSS_TAG)
        normals = rng.standard_normal((int(num_atoms), self.mean.size))
        return self.mean + normals @ self._factor().T

    def as_empirical(self, num_atoms, master_seed=0):
        atoms = self.sample(num_atoms, master_seed)
        return EmpiricalMeasure(0.0, atoms, np.arange(num_atoms), num_atoms)

    def marginal(self, direction):
        u = np.asarray(direction, dtype=float)
        return float(u @ self.mean), float(max(u @ self.cov @ u, 0.0))


def exact_measure_constant(a, z0, t):
    """Law of the zero-drift constant-diffusion system started at z0.

    ``a`` is the generator's second-order coefficient (sigma sigma^T / 2).
    Mean follows the free flight (x + t v, v); covariance carries the
    kinetic blocks (2a t^3/3, a t^2, 2a t).  t = 0 returns the point mass.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim != 1 or z0.size % 2 != 0:
        raise ValidationError("z0 must be a flat (2d,) state")
    t = float(t)
    if t < 0:
        raise ValidationError("time must be nonnegative")
    d = z0.size // 2
    mean = np.concatenate([z0[:d] + t * z0[d:], z0[d:]])
    if t == 0.0:
        return GaussianMeasure(mean, np.zeros((2 * d, 2 * d)))
    return GaussianMeasure(mean, kernel_covariance(a, 0.0, t).matrix())


# ---------------------------------------------------------------------------
# measure comparison


def _unit_directions(num_directions, dim, master_seed):
    rng = _generator(master_seed, _SLICE_TAG)
    raw = rng.standard_normal((int(num_directions), dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateRatioError("degenerate projection direction drawn")
    return raw / norms


def _quantiles_empirical(values, levels):
    # inverted-cdf quantiles by direct order statistics; the library
    # routine is linear in len(levels) per quantile and unusable at 1e5
    order = np.sort(values)
    idx = np.maximum(np.ceil(levels * order.size).astype(np.int64) - 1, 0)
    return order[idx]


def _sliced_distance(mu, nu, num_directions, master_seed):
    dim = mu.atoms.shape[-1]
    dirs = _unit_directions(num_directions, dim, master_seed)
    if isinstance(nu, GaussianMeasure):
        levels = (np.arange(mu.num_atoms) + 0.5) / mu.num_atoms
        total = 0.0
        for u in dirs:
            proj = np.sort(mu.atoms @ u)
            loc, var = nu.marginal(u)
            if var > 0.0:
                ref = _norm.ppf(levels, loc=loc, scale=np.sqrt(var))
            else:
                ref = np.full_like(levels, loc)
            total += np.mean(np.abs(proj - ref))
        return total / len(dirs)
    n_levels = min(mu.num_atoms, nu.num_atoms)
    levels = (np.arange(n_levels) + 0.5) / n_levels
    total = 0.0
    for u in dirs:
        qa = _quantiles_empirical(mu.atoms @ u, levels)
        qb = _quantiles_empirical(nu.atoms @ u, levels)
        total += np.mean(np.abs(qa - qb))
    return total / len(dirs)


_LIPSCHITZ_WIDTHS = (0.5, 0.75, 1.0, 1.5, 2.0)


def _lipschitz_dictionary(num_members, dim, box_half_width=3.0):
    """Fixed Gaussian bumps with unit Lipschitz constant.

    Amplitude w sqrt(e) pins max |grad| to exactly 1 for width w; centers
    fill the comparison box along an unscrambled Halton sequence, so the
    dictionary is a constant of the library, not of the data.
    """
    centers = qmc.Halton(d=dim, scramble=False).random(num_members)
    centers = box_half_width * (2.0 * centers - 1.0)
    widths = [_LIPSCHITZ_WIDTHS[k % len(_LIPSCHITZ_WIDTHS)]
              for k in range(num_members)]
    return centers, np.array(widths)


def _bump_pairing(measure, center, width):
    amp = width * np.sqrt(np.e)
    if isinstance(measure, GaussianMeasure):
        dim = measure.mean.size
        shifted = measure.cov + width**2 * np.eye(dim)
        delta = center - measure.mean
        quad = delta @ np.linalg.solve(shifted, delta)
        det_ratio = np.linalg.det(shifted) / width ** (2 * dim)
        return amp * det_ratio ** -0.5 * np.exp(-0.5 * quad)
    sq = np.sum((measure.atoms - center) ** 2, axis=-1)
    return amp * float(np.mean(np.exp(-0.5 * sq / width**2)))


def _test_sup_distance(mu, nu, num_members, master_seed):
    del master_seed  # the dictionary is fixed; kept for signature symmetry
    dim = mu.atoms.shape[-1]
    centers, widths = _lipschitz_dictionary(num_members, dim)
    worst = 0.0
    for center, width in zip(centers, widths):
        gap = abs(_bump_pairing(mu, center, width)
                  - _bump_pairing(nu, center, width))
        worst = max(worst, gap)
    return worst


def measure_distance(mu, nu, metric="sliced-w1", *, num_directions=32,
                     num_test_bumps=20, master_seed=0):
    """Distance between an empirical measure and an empirical or Gaussian one.

    ``sliced-w1`` averages 1d Wasserstein distances over fixed random
    unit directions with matched quantiles; ``test-sup`` takes the worst
    pairing gap over a fixed dictionary of Lipschitz-1 bumps.  Both
    vanish exactly when the projections or the dictionary cannot tell
    the inputs apart.
    """
    if not isinstance(mu, EmpiricalMeasure):
        raise ValidationError("first argument must be an EmpiricalMeasure")
    if not isinstance(nu, (EmpiricalMeasure, GaussianMeasure)):
        raise ValidationError(
            "second argument must be an EmpiricalMeasure or GaussianMeasure"
        )
    nu_dim = nu.atoms.shape[-1] if isinstance(nu, EmpiricalMeasure) else nu.mean.size
    if mu.atoms.shape[-1] != nu_dim:
        raise ValidationError("measures live in different phase spaces")
    if metric == "sliced-w1":
        if num_directions < 1:
            raise ValidationError("need at least one direction")
        return float(_sliced_distance(mu, nu, num_directions, master_seed))
    if metric == "test-sup":
        if num_test_bumps < 1:
            raise ValidationError("need at least one dictionary member")
        return float(_test_sup_distance(mu, nu, num_test_bumps, master_seed))
    raise ValidationError(f"unknown metric {metric!r}; use sliced-w1 or test-sup")


# independent sample pairs averaged by two_sample_floor
FLOOR_REPEATS = 3


def two_sample_floor(gaussian, num_atoms, *, master_seed=0):
    """Sampling floor of the default sliced-W1 metric at this atom count.

    Mean distance between FLOOR_REPEATS pairs of independent
    ``num_atoms``-draws from the exact law; an empirical measure matching
    the law cannot be expected to sit below this scale.
    """
    if not isinstance(gaussian, GaussianMeasure):
        raise ValidationError("floor reference must be a GaussianMeasure")
    total = 0.0
    for k in range(FLOOR_REPEATS):
        mu = gaussian.as_empirical(num_atoms, master_seed=master_seed + 2 * k)
        nu = gaussian.as_empirical(num_atoms, master_seed=master_seed + 2 * k + 1)
        total += measure_distance(mu, nu, master_seed=master_seed)
    return total / FLOOR_REPEATS


# ---------------------------------------------------------------------------
# dt-refinement of the weak residual


@dataclass
class RefinementStudy:
    """Debiased final-time residual size across a dt ladder.

    ``debiased`` is sqrt(mean over the dictionary of max(M^2 - V, 0))
    where M is the replica-mean residual and V its estimated variance:
    an unbiased estimate of the squared discretization bias with the
    Monte Carlo floor subtracted.  ``floors`` reports sqrt(mean V).
    """

    dts: np.ndarray
    debiased: np.ndarray
    floors: np.ndarray
    gates: np.ndarray
    num_atoms: int
    replicas: int

    def slope(self):
        """Log-log slope of the debiased residual against 1/dt."""
        usable = self.debiased > 0.0
        if usable.sum() < 3:
            raise DegenerateRatioError(
                "Monte Carlo floor dominates on all but "
                f"{int(usable.sum())} rungs; raise the atom count"
            )
        x = np.log(1.0 / self.dts[usable])
        y = np.log(self.debiased[usable])
        return float(np.polyfit(x, y, 1)[0])


def residual_refinement_study(field, law, dt_ladder, num_atoms, *,
                              horizon=1.0, master_seed=0, replicas=4):
    """Measure how the weak residual contracts as dt is refined.

    Each rung runs ``replicas`` independent particle ensembles; the
    replica spread estimates the Monte Carlo variance of the mean
    residual, which is subtracted in quadrature before the slope fit.
    """
    dts = np.asarray(dt_ladder, dtype=float)
    if dts.ndim != 1 or dts.size < 3:
        raise ValidationError("dt ladder needs at least three rungs")
    if np.any(np.diff(dts) >= 0) or np.any(dts <= 0):
        raise ValidationError("dt ladder must be positive and strictly decreasing")
    if replicas < 2:
        raise ValidationError("variance subtraction needs at least two replicas")
    test_set = test_dictionary()

    debiased, floors, gates = [], [], []
    for r, dt in enumerate(dts):
        means = []
        gate_worst = 0.0
        for j in range(replicas):
            seed = int(master_seed) + 1009 * r + j
            measures = particle_measure(field, law, num_atoms, horizon, dt,
                                        master_seed=seed)
            table = weak_residual(measures, field, test_set,
                                  control_variate=True)
            means.append(table.final_residuals())
            gate_worst = max(gate_worst, table.integrability)
        means = np.array(means)                      # (replicas, n_phi)
        center = means.mean(axis=0)
        spread = means.var(axis=0, ddof=1) / replicas
        debiased.append(np.sqrt(np.mean(np.clip(center**2 - spread, 0.0, None))))
        floors.append(np.sqrt(np.mean(spread)))
        gates.append(gate_worst)
    return RefinementStudy(
        dts=dts,
        debiased=np.array(debiased),
        floors=np.array(floors),
        gates=np.array(gates),
        num_atoms=int(num_atoms),
        replicas=int(replicas),
    )

"""Particle transport of the forward measure and its weak-form checks.

The measure-valued solution of the forward (Fokker-Planck) equation is
represented by its defining pairing mu_t(phi) = E phi(Z_t): N independent
atoms pushed through the path integrator, uniform weights.  Every atom is
kept, so mu_t is the law of Z_t itself, the law the superposition
principle ties to a measure-valued solution; a diverging atom aborts the
run through ``integrator.walk`` instead of being dropped.  No density
grid is ever built; with a drift this rough the adjoint operator has no
stable grid discretization, and the particle form is the object the
theory actually speaks about.

Three consistency instruments live here:

* ``weak_residual`` turns the distributional identity
  d/dt mu_t(phi) = mu_t(L phi) into a per-atom telescoping sum whose mean
  isolates time-discretization bias from Monte Carlo noise,
* ``exact_measure_constant`` gives the closed-form Gaussian law of the
  zero-drift constant-diffusion system for cross-validation,
* ``measure_distance`` compares an empirical measure with an empirical or
  Gaussian one by sliced 1-Wasserstein projections.

Test functions carry analytic derivative closures; nothing in the weak
form is differentiated numerically.  The monomial bumps of the default
dictionary are evaluated exactly: rows inside a bump's plateau square
(|x|, |v| <= r_in, x and v nonzero) skip the cutoffs, whose pieces are
exactly (1.0, +0.0, +0.0) there, and every other row (ramp, outside,
exact zero, NaN) takes the full formula; exact zeros are left out of
the plateau because the full formula turns a -0.0 derivative monomial
into +0.0.  Both paths give the same bits.

``weak_residual`` (by groups of members) and ``checkpoints_to_csv`` (by
checkpoint) run on `parallel_map`'s forked workers, which inherit the
checkpoints at fork; only rows and text come back, and they are placed in
a fixed order, so every output is the same bits for any KF_WORKERS.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRatioError, ValidationError
from .fields import CoefficientField
from .integrator import (
    BrownianGrid,
    step_index,
    tagged_stream,
    uniform_step,
    walk,
)
from .kernel import kernel_covariance
from .parallel import parallel_map, worker_count

__all__ = [
    "InitialLaw",
    "point_mass",
    "gaussian_cloud",
    "EmpiricalMeasure",
    "particle_measure",
    "checkpoints_to_csv",
    "TestFunction",
    "monomial_bump",
    "test_dictionary",
    "ResidualTable",
    "check_atom_count",
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
# projection directions of the sliced distance
_SLICE_DIRECTIONS = 32
# float64 arrays of the atom count that weak_residual holds at once with
# the 12-member test_dictionary at d = 1, the checkpoints aside: each
# member's running sums and the checkpoint's drift, memo and jets.
# tracemalloc at N = 20,000 read 83.3 (88.7 with the control variate),
# rounded up; the config's memory rule counts them
RESIDUAL_TEMPORARIES = 90


# ---------------------------------------------------------------------------
# initial laws


@dataclass(frozen=True)
class InitialLaw:
    """Initial atom distribution: point mass or Gaussian cloud.

    ``center`` is a phase-space point (2d,); ``scale`` is the Gaussian
    standard deviation (ignored for a point mass).
    """

    kind: str
    center: np.ndarray
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("point", "gaussian"):
            raise ValidationError(
                f"unknown initial law {self.kind!r}; choose point or gaussian"
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
        return self.center + self.scale * rng.standard_normal((n, self.phase_dim))


def point_mass(z):
    return InitialLaw("point", z)


def gaussian_cloud(center, scale):
    return InitialLaw("gaussian", center, float(scale))


# ---------------------------------------------------------------------------
# empirical measures


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted atoms of the particle measure at one time.

    An atom's id is its row: row i of every checkpoint of one run is
    path i, so per-atom quantities can telescope in time.
    """

    t: float
    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[-1] % 2 != 0:
            raise ValidationError("atoms must have shape (n, 2d)")
        if atoms.shape[0] < 1:
            raise ValidationError("empirical measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("atoms must be finite")
        object.__setattr__(self, "atoms", atoms)

    @property
    def num_atoms(self):
        return self.atoms.shape[0]

    @property
    def dim(self):
        return self.atoms.shape[-1] // 2


def particle_measure(field, law, num_atoms, horizon, dt, checkpoints=None, *,
                     scheme="em", master_seed=0):
    """Evolve ``num_atoms`` independent draws of ``law`` and snapshot them.

    Returns one EmpiricalMeasure per checkpoint (default: every grid
    time), each holding every atom, row i for path i.  A diverging atom
    raises ``integrator.walk``'s DivergenceError; none is dropped.  The
    atoms stream through ``walk``: only the checkpoint snapshots are kept,
    never the whole path.  Checkpoint times come from the given T, not
    from the noise grid's ``times`` (whose end is dt times the step
    count), because they are ``atoms.csv``'s t column.
    """
    if not isinstance(field, CoefficientField):
        raise ValidationError("field must be a CoefficientField")
    if law.phase_dim != 2 * field.dim:
        raise ValidationError("initial law dimension does not match the field")
    grid = BrownianGrid.for_horizon(master_seed, horizon, dt, field.dim)
    horizon, steps = float(horizon), grid.num_steps
    times = np.linspace(0.0, horizon, steps + 1)
    if checkpoints is None:
        check_idx = np.arange(steps + 1)
    else:
        req = np.asarray(checkpoints, dtype=float)
        if req.ndim != 1 or req.size < 1:
            raise ValidationError("checkpoints must be a nonempty 1d sequence")
        check_idx = step_index(req, grid.dt, horizon)
        if np.any(np.diff(check_idx) <= 0):
            raise ValidationError("checkpoints must be strictly increasing")

    atoms0 = law.sample(num_atoms, tagged_stream(master_seed, _INIT_TAG))
    slot = {j: c for c, j in enumerate(check_idx.tolist())}
    snaps = np.empty((check_idx.size,) + atoms0.shape)
    for lo, hi, k, state, _ in walk(field, atoms0, grid, scheme=scheme):
        if k in slot:
            snaps[slot[k], lo:hi] = state
    return [EmpiricalMeasure(float(times[j]), snaps[c])
            for c, j in enumerate(check_idx)]


def checkpoints_to_csv(measures, path):
    """Atom table across checkpoints: t, atom_id (the row), coordinates.

    Each checkpoint is formatted through one ``%.17g`` row template; the
    bytes are those of a ``csv.writer`` writing the same fields row by row
    (no field ever needs quoting).  The checkpoints are formatted on
    `parallel_map`'s workers, one task per checkpoint, which inherit the
    atoms at fork; each task's text comes back and the caller writes the
    blocks in checkpoint order, so the bytes do not depend on KF_WORKERS.
    """
    if not measures:
        raise ValidationError("no checkpoints to write")
    d = measures[0].dim
    header = (["t", "atom_id"]
              + [f"x{i+1}" for i in range(d)]
              + [f"v{i+1}" for i in range(d)])

    def rows(mu):
        row = f"{mu.t:.17g},%d," + ",".join(["%.17g"] * (2 * d))
        columns = [range(mu.num_atoms)] + mu.atoms.T.tolist()
        return "\n".join([row % fields for fields in zip(*columns)])

    blocks = parallel_map(rows, measures)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(block)
            fh.write("\n")


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


def _mono(s, k):
    return s ** k if k > 0 else np.ones_like(s)


def _mono_d1(s, k):
    return k * s ** (k - 1) if k >= 1 else np.zeros_like(s)


def _mono_d2(s, k):
    return k * (k - 1) * s ** (k - 2) if k >= 2 else np.zeros_like(s)


_MONO_DERIVATIVES = (_mono, _mono_d1, _mono_d2)


# Largest monomial power the plateau path serves.  Up to it, a derivative
# monomial k s^(k-1) or k (k-1) s^(k-2) is a signed zero only at s = +-0;
# above it, a tiny negative s can underflow one to -0.0 (4 s^3 at s =
# -1e-200), which the full formula's m' + m * (+0.0) turns into +0.0.
_PLATEAU_MAX_POWER = 3


def _plateau_rows(z, r_in):
    """Rows of states z (d=1) inside the plateau square of inner radius
    r_in: |x| <= r_in, |v| <= r_in, x != 0 and v != 0 (NaN is never
    inside)."""
    x, v = z[..., 0], z[..., 1]
    return (np.abs(x) <= r_in) & (np.abs(v) <= r_in) & (x != 0.0) & (v != 0.0)


class _Pieces:
    """Per-state memo of what monomial bumps share at states z (d=1).

    One ``_cut_pieces`` per (axis, r_in, r_out), one monomial power or
    derivative per (axis, k, order) and one plateau split per r_in, each
    computed on first use; members evaluated through the same memo never
    recompute a piece.

    The split sorts the rows into two classes.  *Inside* rows
    (``_plateau_rows``) have both cutoffs exactly (1.0, +0.0, +0.0), so
    their jet needs no cutoff at all.  Every other row is *rest*: on a
    ramp, outside the support, an exact zero in x or v, or NaN.  Exact
    zeros are rest for their sign: the full formula adds m * (+0.0) to a
    derivative monomial m', which turns m' = -0.0 (2x at x = -0.0) into
    +0.0.  The split keeps the rest rows' index and a memo of their states
    alone, so the cutoffs are computed on those rows only.
    """

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)
        self._cuts = {}
        self._powers = {}
        self._splits = {}

    def cut(self, axis, r_in, r_out):
        key = (axis, r_in, r_out)
        if key not in self._cuts:
            self._cuts[key] = _cut_pieces(self.z[..., axis], r_in, r_out)
        return self._cuts[key]

    def mono(self, axis, k, order):
        key = (axis, k, order)
        if key not in self._powers:
            self._powers[key] = _MONO_DERIVATIVES[order](self.z[..., axis], k)
        return self._powers[key]

    def split(self, r_in):
        """Plateau split at r_in: None when no row is inside, else (rest
        index, memo of the rest rows), both None when every row is."""
        if r_in not in self._splits:
            inside = _plateau_rows(self.z, r_in)
            if not inside.any():
                self._splits[r_in] = None
            elif inside.all():
                self._splits[r_in] = (None, None)
            else:
                rest = np.nonzero(~inside)
                self._splits[r_in] = (rest, _Pieces(self.z[rest]))
        return self._splits[r_in]


def _full_jet(pieces, bump):
    """``_bump_jet`` through the cutoff pieces, valid on every row."""
    i, j, r_in, r_out = bump
    cx, cx1, _ = pieces.cut(0, r_in, r_out)
    cv, cv1, cv2 = pieces.cut(1, r_in, r_out)
    mx, mv, mv1 = pieces.mono(0, i, 0), pieces.mono(1, j, 0), pieces.mono(1, j, 1)
    x_part = mx * cx
    value = x_part * mv * cv
    gx = (pieces.mono(0, i, 1) * cx + mx * cx1) * mv * cv
    gv = x_part * (mv1 * cv + mv * cv1)
    hv = x_part * (pieces.mono(1, j, 2) * cv + 2.0 * mv1 * cv1 + mv * cv2)
    return value, gx, gv, hv


def _bump_jet(pieces, bump):
    """Value, d/dx, d/dv and d^2/dv^2 of the monomial bump ``bump``.

    ``bump`` is ``(i, j, r_in, r_out)``: x^i v^j times plateau cutoffs in
    x and v.  Each result has the batch shape of the states.

    Inside rows of the memo's plateau split at r_in take the exact
    plateau path: with the cutoffs (1.0, +0.0, +0.0) the full formula
    reduces, bit for bit, to value = mx mv, d/dx = mx' mv, d/dv = mx mv'
    and d^2/dv^2 = mx mv'' (multiplying by 1.0 is exact, and adding
    m * (+0.0) leaves a nonzero or +0.0 derivative monomial unchanged).
    Rest rows take ``_full_jet`` on the rest memo and are scattered back.
    With no row inside, or a power above _PLATEAU_MAX_POWER, every row
    takes ``_full_jet`` on the memo itself.
    """
    if pieces.z.shape[-1] != 2:
        raise ValidationError("monomial test functions are one dimensional")
    i, j, r_in, _ = bump
    split = (pieces.split(r_in) if max(i, j) <= _PLATEAU_MAX_POWER
             else None)
    if split is None:
        return _full_jet(pieces, bump)
    mx, mv = pieces.mono(0, i, 0), pieces.mono(1, j, 0)
    jet = (mx * mv, pieces.mono(0, i, 1) * mv, mx * pieces.mono(1, j, 1),
           mx * pieces.mono(1, j, 2))
    rest, rest_pieces = split
    if rest is not None:
        for out, part in zip(jet, _full_jet(rest_pieces, bump)):
            out[rest] = part
    return jet


def _apply_generator(v, drift, a, grad_x, grad_v, hess_v):
    """v . grad_x + b . grad_v + a : hess_v from precomputed pieces.

    At d = 1 the products are added directly: the reductions below start
    from +0.0, and the trailing ``+ 0.0`` turns a -0.0 into +0.0 exactly
    as they do, so both forms give the same bits.
    """
    if v.shape[-1] == 1:
        return (v[..., 0] * grad_x[..., 0] + drift[..., 0] * grad_v[..., 0]
                + a[..., 0, 0] * hess_v[..., 0, 0] + 0.0)
    transport = np.sum(v * grad_x, axis=-1)
    forcing = np.sum(drift * grad_v, axis=-1)
    diffusion = np.einsum("...ij,...ij->...", a, hess_v)
    return transport + forcing + diffusion


@dataclass(frozen=True)
class TestFunction:
    """Scalar phase-space observable with analytic derivative closures.

    ``grad_x``/``grad_v`` map (n, 2d) states to (n, d); ``hess_v`` to
    (n, d, d).  Members missing a closure are rejected by the weak form:
    the generator needs exact derivatives so the residual measures time
    discretization and nothing else.  ``bump`` is ``(i, j, r_in, r_out)``
    on members made by ``monomial_bump``, whose closures evaluate that
    bump; ``weak_residual`` and ``generator_apply`` evaluate such members
    from it directly, one jet for all four parts.
    """

    __test__ = False        # not a pytest collection target

    name: str
    value: callable
    grad_x: callable = None
    grad_v: callable = None
    hess_v: callable = None
    bump: tuple = None

    def _require_closures(self):
        if self.grad_x is None or self.grad_v is None or self.hess_v is None:
            raise ValidationError(
                f"test function {self.name!r} lacks derivative closures; "
                "the weak form needs C^2 members"
            )

    def generator_apply(self, field, t, z):
        """(v . grad_x + b . grad_v + a : hess_v) applied at states z."""
        self._require_closures()
        z = np.asarray(z, dtype=float)
        if self.bump is not None:
            parts = _member_jet(self, _Pieces(z))[1:]
        else:
            parts = (self.grad_x(z), self.grad_v(z), self.hess_v(z))
        return _apply_generator(z[..., field.dim:], field.drift(t, z),
                                field.generator_a(t, z), *parts)

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
    form, through ``_bump_jet``.
    """
    i, j = int(x_power), int(v_power)
    if i < 0 or j < 0:
        raise ValidationError("monomial powers must be nonnegative")
    if not 0.0 < r_in < r_out:
        raise ValidationError("need 0 < r_in < r_out")
    label = name or f"x{i}v{j}[{r_in:g},{r_out:g}]"
    bump = (i, j, r_in, r_out)

    def part(k, index):
        return lambda z: _bump_jet(_Pieces(z), bump)[k][index]

    return TestFunction(label, part(0, ...), part(1, (..., None)),
                        part(2, (..., None)), part(3, (..., None, None)), bump)


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


class _RunningMember:
    """O(N) state one member carries through the checkpoint pass."""

    __slots__ = ("value0", "gen_sum", "mg_sum", "grad_v")


def check_atom_count(num_atoms):
    """Refuse fewer than two atoms: the weak residual's standard errors
    use ddof = 1.

    weak_residual calls this, and so does the fokker-planck config
    before any output exists.
    """
    if num_atoms < 2:
        raise ValidationError(
            "the weak residual needs at least 2 atoms (its standard errors "
            f"use ddof = 1), got {num_atoms}")


def _member_jet(phi, pieces):
    """Value and derivatives of one member at the memo's states."""
    if phi.bump is not None:
        value, gx, gv, hv = _bump_jet(pieces, phi.bump)
        return value, gx[..., None], gv[..., None], hv[..., None, None]
    z = pieces.z
    return phi.value(z), phi.grad_x(z), phi.grad_v(z), phi.hess_v(z)


def weak_residual(measures, field, test_set, *, control_variate=False):
    """Weak-form defect R(t) = mu_t(phi) - mu_0(phi) - sum_s mu_s(L phi) dt.

    ``measures`` must be the checkpoints of one particle run on the full
    uniform time grid, all with the same atom count (row i is atom i at
    every time); dt is read off that grid.  The generator term uses
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

    The members are split into ``min(worker_count(), len(test_set))``
    strided groups (member i in group i mod the count), one
    `parallel_map` task per group.  Strided groups share the default
    dictionary's costly members out: its two cubes (a libm ``pow`` per
    checkpoint) and its two extra radii sit at its end, where contiguous
    halves would put all four in one group.  The workers inherit the
    checkpoints at fork; each returns its members' rows of means and
    standard errors, the last group (never larger than another) also the
    integrability gate, and the caller puts the rows back in member
    order.  A member's arithmetic does not depend on which members share
    its group, so no output depends on KF_WORKERS; one group is a serial
    pass in the caller.  See ``_residual_pass`` for the pass itself.
    """
    if len(measures) < 2:
        raise ValidationError("need at least two checkpoints for a residual")
    times = np.array([m.t for m in measures], dtype=float)
    grid_dt = uniform_step(times)
    if len({m.num_atoms for m in measures}) != 1:
        raise ValidationError("checkpoints must hold the same atom count")
    check_atom_count(measures[0].num_atoms)
    if not test_set:
        raise ValidationError("empty test set")
    for phi in test_set:
        if phi.bump is None:
            phi._require_closures()

    count = min(worker_count(), len(test_set))
    groups = [list(range(g, len(test_set), count)) for g in range(count)]

    def task(g):
        return _residual_pass(measures, field,
                              [test_set[i] for i in groups[g]], grid_dt,
                              control_variate, gate=g == count - 1)

    residuals = np.empty((len(test_set), len(measures) - 1))
    std_errors = np.empty_like(residuals)
    parts = parallel_map(task, range(count))
    for group, (res, se, _) in zip(groups, parts):
        residuals[group], std_errors[group] = res, se
    return ResidualTable(
        phi_names=[phi.name for phi in test_set],
        times=times[1:],
        residuals=residuals,
        std_errors=std_errors,
        integrability=float(grid_dt * parts[-1][2]),
        num_atoms=measures[0].num_atoms,
    )


def _residual_pass(measures, field, members, grid_dt, control_variate, gate):
    """One pass over the checkpoints for ``members``: their (members x
    checkpoints - 1) residual and standard-error rows, and the sum of the
    integrability gate's rows when ``gate`` is set (else None).

    At each checkpoint but the last (whose drift no term reads) the
    field's drift and ``a`` are evaluated once and shared by every member,
    and monomial bumps share one ``_Pieces`` memo of cutoffs, powers and
    plateau splits.  A checkpoint's rows are classed once per inner
    radius: inside rows (plateau square, x and v nonzero) take the exact
    plateau path of ``_bump_jet``; ramp, outside, exact-zero and NaN rows
    take the full cutoff formula, exact zeros because its m' + m * (+0.0)
    turns a -0.0 derivative into +0.0.  Each member carries O(N) running
    state (its values at t_0, the running sum of L phi and of the
    martingale), and each checkpoint's row of means and standard errors
    is written as the pass reaches it, so no (checkpoints x N) array is
    built.
    """
    n_check, n_atoms = len(measures), measures[0].num_atoms
    d = field.dim
    residuals = np.empty((len(members), n_check - 1))
    std_errors = np.empty_like(residuals)
    runs = [_RunningMember() for _ in members]
    gate_rows = []
    for k, mu in enumerate(measures):
        z = mu.atoms
        v = z[..., d:]
        last = k == n_check - 1
        if control_variate and k > 0:
            # sigma dW_{k-1}, read back off the velocity update
            noise = v - prev_v - grid_dt * prev_drift
        if not last:
            drift = np.asarray(field.drift(mu.t, z),
                               dtype=float).reshape(n_atoms, d)
            a = field.generator_a(mu.t, z)
            if gate:
                gate_rows.append(np.mean(np.linalg.norm(v, axis=-1)
                                         + np.linalg.norm(drift, axis=-1)))
            prev_v, prev_drift = v, drift
        pieces = _Pieces(z)
        for row, (phi, run) in enumerate(zip(members, runs)):
            value, gx, gv, hv = _member_jet(phi, pieces)
            if k == 0:
                run.value0 = value
            else:
                # per-atom telescoped residual at t_k
                per_atom = value - run.value0 - grid_dt * run.gen_sum
                if control_variate:
                    step = np.sum(run.grad_v * noise, axis=-1)
                    run.mg_sum = step if k == 1 else run.mg_sum + step
                    per_atom -= run.mg_sum
                residuals[row, k - 1] = per_atom.mean()
                std_errors[row, k - 1] = (per_atom.std(ddof=1)
                                          / np.sqrt(n_atoms))
            if not last:
                gen = _apply_generator(v, drift, a, gx, gv, hv)
                run.gen_sum = gen if k == 0 else run.gen_sum + gen
                run.grad_v = gv
    return residuals, std_errors, (np.array(gate_rows).sum() if gate
                                   else None)


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
        rng = tagged_stream(master_seed, _GAUSS_TAG)
        normals = rng.standard_normal((int(num_atoms), self.mean.size))
        return self.mean + normals @ self._factor().T

    def as_empirical(self, num_atoms, master_seed=0):
        return EmpiricalMeasure(0.0, self.sample(num_atoms, master_seed))

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


def _unit_directions(dim, master_seed):
    rng = tagged_stream(master_seed, _SLICE_TAG)
    raw = rng.standard_normal((_SLICE_DIRECTIONS, dim))
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


def _sliced_distance(mu, nu, master_seed):
    from scipy.stats import norm

    dim = mu.atoms.shape[-1]
    dirs = _unit_directions(dim, master_seed)
    if isinstance(nu, GaussianMeasure):
        levels = (np.arange(mu.num_atoms) + 0.5) / mu.num_atoms
        total = 0.0
        for u in dirs:
            proj = np.sort(mu.atoms @ u)
            loc, var = nu.marginal(u)
            if var > 0.0:
                ref = norm.ppf(levels, loc=loc, scale=np.sqrt(var))
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


def measure_distance(mu, nu, *, master_seed=0):
    """Sliced 1-Wasserstein distance from an empirical measure to an
    empirical or Gaussian one.

    Averages 1d Wasserstein distances with matched quantiles over 32
    random unit directions drawn from ``master_seed``; it vanishes
    exactly when no projection tells the inputs apart.
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
    return float(_sliced_distance(mu, nu, master_seed))


# independent sample pairs averaged by two_sample_floor
FLOOR_REPEATS = 3


def two_sample_floor(gaussian, num_atoms, *, master_seed=0):
    """Sampling floor of the sliced-W1 distance at this atom count.

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

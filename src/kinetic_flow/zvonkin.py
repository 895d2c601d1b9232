"""Velocity-shift change of variables built from a damped resolvent PDE.

For a kinetic system dX = V dt, dV = b dt + sigma dW with bounded drift b
and constant diffusion, the d-vector field u solving the backward equation

    d_t u + v . grad_x u + b . grad_v u + a : grad_v^2 u - lam u + b = 0,
    u_T = 0,        a = sigma sigma^T / 2,

defines H_t(x, v) = v + u_t(x, v).  Ito's formula collapses the rough drift
out of H(Z): along any solution,

    dH_t(Z_t) = lam u_t(Z_t) dt + (I + grad_v u_t) sigma dW_t,

an identity this module verifies pathwise by Monte Carlo.  The PDE is
solved by Duhamel quadrature against the exact Gaussian transition operator
of the drift-free system; the b . grad_v u coupling is iterated to its
fixed point, with the damping rate lam raised until the iteration
contracts and the velocity gradient of u is provably small.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    AccuracyError,
    GradientBoundError,
    LambdaTooSmallError,
    ValidationError,
)
from .grids import GridFunction, grid_mesh
from .integrator import map_walk, step_index, uniform_step
from .kernel import KernelStep, apply_semigroup, diffusion_matrix
from .parallel import parallel_map, worker_count

# Picard stops once the sup-norm increment drops below PICARD_TOL and gives
# up after PICARD_MAX_ITER sweeps
PICARD_TOL = 1e-8
PICARD_MAX_ITER = 32
# paths within this many grid cells of the periodic seam leave the
# residual statistics
SEAM_MARGIN_CELLS = 4


def _axis_kinds(dim):
    return ("x",) * dim + ("v",) * dim


def _as_sigma(sigma, dim):
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 0:
        sigma = float(sigma) * np.eye(dim)
    if sigma.shape != (dim, dim) or not np.all(np.isfinite(sigma)):
        raise ValidationError(f"sigma must be a finite ({dim}, {dim}) matrix")
    return sigma


def _axis_derivative(vals, axis, spacing, order=1):
    """Spectral d^order/dz^order of periodic samples along one axis.

    irfft drops the imaginary part of the Nyquist bin, which is what the
    real part of a full complex transform does there.  The transforms run
    on scipy.fft, which loads at first use, batched over every other axis
    (all time slices at once for grad_v and pde_defect).
    """
    import scipy.fft

    n = vals.shape[axis]
    shape = [1] * vals.ndim
    shape[axis] = n // 2 + 1
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=spacing)
    mult = (1j * k.reshape(shape)) ** order
    spec = scipy.fft.rfft(vals, axis=axis)
    return scipy.fft.irfft(spec * mult, n=n, axis=axis)


# ---------------------------------------------------------------------------
# space-time fields


@dataclass
class SpaceTimeField:
    """A d-vector field on uniform time slices over a periodic phase grid.

    values has shape (num_slices, n, ..., n, d): one leading time axis,
    2 d grid axes ordered (x..., v...), one trailing component axis.  The
    diffusion matrix a = sigma sigma^T / 2 of the underlying system and the
    damping rate lam travel with the field so downstream consumers cannot
    pair a solution with the wrong operator.
    """

    times: np.ndarray
    values: np.ndarray
    box_half_width: float
    diffusion: np.ndarray
    lam: float = 0.0
    _gv: np.ndarray = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        uniform_step(self.times)
        if self.times[0] != 0.0:
            raise ValidationError("time slices must start at 0")
        if self.values.shape[0] != self.times.size:
            raise ValidationError("leading axis of values must match times")
        d = self.values.shape[-1]
        if self.values.ndim != 2 + 2 * d:
            raise ValidationError(
                f"values with {d} components needs {2 * d} grid axes, got shape "
                f"{self.values.shape}"
            )
        n = self.values.shape[1]
        if any(s != n for s in self.values.shape[1:-1]):
            raise ValidationError("grid axes must share one points_per_axis")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("field values must be finite")
        self.diffusion = diffusion_matrix(self.diffusion, d)
        self.box_half_width = float(self.box_half_width)
        if self.box_half_width <= 0:
            raise ValidationError("box_half_width must be positive")
        self.lam = float(self.lam)
        if self.lam < 0:
            raise ValidationError("lam must be >= 0")
        self.values.setflags(write=False)

    def __setstate__(self, state):
        # a field that comes back from a worker by pickle stays read-only
        self.__dict__.update(state)
        for arr in (self.values, self._gv):
            if arr is not None:
                arr.setflags(write=False)

    # -- geometry ---------------------------------------------------------

    @property
    def dim(self):
        return self.values.shape[-1]

    @property
    def phase_dim(self):
        return 2 * self.dim

    @property
    def horizon(self):
        return float(self.times[-1])

    @property
    def num_slices(self):
        return self.times.size

    @property
    def slice_dt(self):
        return float(self.times[1] - self.times[0])

    @property
    def points_per_axis(self):
        return self.values.shape[1]

    @property
    def spacing(self):
        return 2.0 * self.box_half_width / self.points_per_axis

    @property
    def axis_kinds(self):
        return _axis_kinds(self.dim)

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, num_slices, horizon, box_half_width, points_per_axis,
              dim, diffusion, lam=0.0):
        times = np.linspace(0.0, float(horizon), int(num_slices) + 1)
        shape = (times.size,) + (int(points_per_axis),) * (2 * dim) + (dim,)
        return cls(times, np.zeros(shape), box_half_width, diffusion, lam)

    # -- access -----------------------------------------------------------

    def slice_grid(self, i):
        return GridFunction(self.values[i], self.box_half_width, self.axis_kinds)

    def grad_v(self):
        """All velocity derivatives, shape (slices, grid..., component, v-axis)."""
        if self._gv is None:
            d = self.dim
            cols = [
                _axis_derivative(self.values, 1 + d + j, self.spacing)
                for j in range(d)
            ]
            gv = np.stack(cols, axis=-1)
            gv.setflags(write=False)
            self._gv = gv
        return self._gv

    def gradient_v_sup(self):
        """sup over slices and points of the operator norm of grad_v u."""
        gv = self.grad_v()
        if self.dim == 1:
            return float(np.max(np.abs(gv)))
        return float(np.max(np.linalg.norm(gv, ord=2, axis=(-2, -1))))


# ---------------------------------------------------------------------------
# Duhamel quadrature


def duhamel_resolvent(source, lam, *, method="recursive", tail_tol=1e-6):
    """u_t = integral_t^T exp(lam (t-s)) P_{t,s} f_s ds, trapezoid in s.

    P is the transition operator of the source's own diffusion, applied by
    the spectral kernel backend.  The slice grid of the source is the
    quadrature grid; the s = t endpoint contributes through
    P_{t,t} = identity.  'recursive' evaluates the trapezoid sum by one
    fixed-gap transition per backward step: a single KernelStep over one
    slice gap, built once per call (the transition operators compose
    exactly, so this equals the direct sum up to rounding).  The source
    goes to the step's mixed layout in one batched rfft, the recursion
    runs there, and one batched irfft brings u back; the two batched
    transforms run on scipy.fft and the per-slice transport of the
    recursion on numpy.fft (see KernelStep).  The seam guard then checks
    each carried slice u_{i+1} + (step/2) f_{i+1}, one at a time, so a
    rejected lam fails after its whole sweep.  'direct' performs the
    O(slices^2) sum through apply_semigroup and exists to cross-check the
    recursion.  Both run the guard on every slice they transport, at
    tail_tol.
    """
    if lam < 0:
        raise ValidationError("lam must be >= 0")
    a = source.diffusion
    if method not in ("recursive", "direct"):
        raise ValidationError(f"unknown quadrature method {method!r}")
    nt = source.num_slices - 1
    step = source.slice_dt
    g = source.values

    if method == "recursive":
        kstep = KernelStep(source.slice_grid(0), a, step, tail_tol=tail_tol)
        decay = np.exp(-lam * step)
        half = 0.5 * step
        # the recursion runs in the step's mixed layout, in place: slot i+1
        # of spec takes u_{i+1} once the source term it held is used
        spec = kstep.to_mixed(g)
        carried = np.zeros_like(spec[nt])
        for i in range(nt - 1, -1, -1):
            incoming = half * spec[i + 1]
            incoming += carried
            spec[i + 1] = carried
            carried = kstep.transport(incoming)
            carried *= decay
            carried += half * spec[i]
        spec[0] = carried
        out = kstep.from_mixed(spec)
        for i in range(nt - 1, -1, -1):
            kstep.guard(out[i + 1] + half * g[i + 1])
    else:
        out = np.zeros_like(g)
        for i in range(nt):
            acc = 0.5 * step * np.array(g[i])
            for j in range(i + 1, nt + 1):
                gap = source.times[j] - source.times[i]
                applied = apply_semigroup(
                    source.slice_grid(j), 0.0, gap, a, tail_tol=tail_tol,
                ).values
                w = 0.5 * step if j == nt else step
                acc += w * np.exp(-lam * gap) * applied
            out[i] = acc

    return SpaceTimeField(source.times.copy(), out, source.box_half_width, a, lam)


# ---------------------------------------------------------------------------
# Picard fixed point


@dataclass
class PicardResult:
    """Fixed point of u -> resolvent(b . grad_v u + b) plus its history."""

    u: SpaceTimeField
    increments: np.ndarray
    num_iterations: int
    # (lam, reason, value) per lam `search_lambda` tried; empty otherwise
    lambda_tried: tuple = ()

    @property
    def ratios(self):
        """Successive increment ratios; empty if converged in one sweep."""
        inc = self.increments
        live = inc[:-1] > 0
        return inc[1:][live] / inc[:-1][live]


def picard_solve(drift, lam, horizon, a, *, box_half_width, points_per_axis,
                 num_slices, dim=1, tail_tol=1e-6):
    """Iterate u^{k+1} = resolvent(b . grad_v u^k + b) from u^0 = 0.

    drift is a callable (t, z) -> (..., d), evaluated once at t = 0 (the
    library fields are autonomous).  Stops when the sup-norm increment
    drops below PICARD_TOL; a monotone increment growth or PICARD_MAX_ITER
    sweeps without convergence raise LambdaTooSmallError carrying the
    observed contraction ratio.
    """
    if lam <= 0:
        raise ValidationError("picard iteration needs lam > 0")
    a = diffusion_matrix(a, dim)
    times = np.linspace(0.0, float(horizon), int(num_slices) + 1)
    mesh = grid_mesh(box_half_width, points_per_axis, 2 * dim)
    pts = np.stack(mesh, axis=-1)
    b0 = np.asarray(drift(0.0, pts), dtype=float)
    b_slices = np.broadcast_to(b0[None], (times.size,) + b0.shape)
    if not np.all(np.isfinite(b_slices)):
        raise ValidationError("drift produced non-finite values on the grid")

    u = SpaceTimeField.zeros(num_slices, horizon, box_half_width,
                             points_per_axis, dim, a, lam)
    increments = []
    for it in range(1, PICARD_MAX_ITER + 1):
        if it == 1:
            g = np.array(b_slices)
        else:
            gv = u.grad_v()
            g = b_slices + np.einsum("...j,...cj->...c", b_slices, gv)
        src = SpaceTimeField(times, g, box_half_width, a)
        u_next = duhamel_resolvent(src, lam, tail_tol=tail_tol)
        inc = float(np.max(np.abs(u_next.values - u.values)))
        increments.append(inc)
        u = u_next
        if inc < PICARD_TOL:
            return PicardResult(u, np.asarray(increments), it)
        if len(increments) >= 3 and increments[-1] > increments[-2] > increments[-3]:
            raise LambdaTooSmallError(
                f"picard increments grow at lam={lam:g}",
                observed_ratio=increments[-1] / increments[-2],
            )
    ratio = increments[-1] / increments[-2] if len(increments) > 1 else np.inf
    raise LambdaTooSmallError(
        f"no contraction below tol={PICARD_TOL:g} within {PICARD_MAX_ITER} "
        f"sweeps at lam={lam:g} (last ratio {ratio:.3g})",
        observed_ratio=ratio,
    )


def search_lambda(drift, horizon, a, *, box_half_width, points_per_axis,
                  num_slices, dim=1, lam_init=1.0, max_doublings=14,
                  gradient_target=0.5):
    """Double lam until the fixed point exists and sup |grad_v u| <= target.

    Returns the accepted PicardResult; the rate is in result.u.lam.  A lam
    too small shows up either as a non-contracting iteration or as kernel
    mass reaching the periodic seam (the resolvent spreads over ~1/lam of
    time); both advance the search, as does a gradient above the target.
    result.lambda_tried lists each lam tried, in ladder order, as
    (lam, reason, value): ("contraction", observed ratio), ("seam", None),
    ("gradient", measured sup), and last ("accepted", None).

    The ladder lam_init * 2^k runs in batches of KF_WORKERS values through
    `parallel_map`: each worker process runs `picard_solve` and the
    gradient test for one lam and sends back by pickle the PicardResult
    (u with its cached grad_v), the rejection reason, or the exception
    raised.  The caller reads a batch in ladder order and stops at the
    first lam the serial loop would stop at, so a speculative lam after it
    is never recorded and never raises.  Each lam's sweep is the same
    arithmetic in any process, so the accepted lam, the returned bits,
    the trace and every error raised do not depend on KF_WORKERS.
    """
    if max_doublings < 1:
        raise ValidationError(f"max_doublings must be >= 1, got {max_doublings}")
    if not gradient_target > 0:
        raise ValidationError(
            f"gradient_target must be > 0, got {gradient_target}")

    def attempt(lam):
        try:
            try:
                res = picard_solve(
                    drift, lam, horizon, a, box_half_width=box_half_width,
                    points_per_axis=points_per_axis, num_slices=num_slices,
                    dim=dim)
            except LambdaTooSmallError as exc:
                return "contraction", exc.observed_ratio
            except AccuracyError:
                return "seam", None
            sup = res.u.gradient_v_sup()
            if sup > gradient_target:
                return "gradient", sup
            return "accepted", res
        except Exception as exc:
            # raised by the caller only if the serial loop would reach lam
            return "error", exc

    # every attempt transforms with scipy.fft: load it once here, so that
    # the forked workers inherit it
    import scipy.fft  # noqa: F401

    ladder = [float(lam_init) * 2.0 ** k for k in range(max_doublings)]
    batch = worker_count()
    tried = []
    for start in range(0, max_doublings, batch):
        lams = ladder[start:start + batch]
        for lam, (reason, value) in zip(lams, parallel_map(attempt, lams)):
            if reason == "error":
                raise value
            if reason == "accepted":
                value.lambda_tried = tuple(tried) + ((lam, reason, None),)
                return value
            tried.append((lam, reason, value))
    raise LambdaTooSmallError(
        f"gradient target {gradient_target:g} not reached up to "
        f"lam={float(lam_init) * 2.0 ** max_doublings:g}"
    )


# ---------------------------------------------------------------------------
# the transform


def _prefilter(values, num_grid_axes, first_grid_axis=1):
    """Cubic spline coefficients along the grid axes only (periodic)."""
    from scipy import ndimage

    out = np.ascontiguousarray(values)
    for off in range(num_grid_axes):
        out = ndimage.spline_filter1d(
            out, order=3, axis=first_grid_axis + off, mode="grid-wrap",
            output=np.float64,
        )
    return out


@dataclass
class ZvonkinTransform:
    """H_t(x, v) = v + u_t(x, v) with its velocity gradient and noise map.

    Off-grid evaluation is cubic tensor interpolation on prefiltered
    coefficient stacks; t must lie on the slice grid of u (the PDE and the
    integrator share their time grid by construction).
    """

    u: SpaceTimeField
    sigma: np.ndarray
    gradient_sup: float
    _u_coeffs: np.ndarray = dc_field(repr=False)
    _gv_coeffs: np.ndarray = dc_field(repr=False)

    @property
    def dim(self):
        return self.u.dim

    def _interp(self, coeffs, i, pts):
        from scipy import ndimage

        pts = np.asarray(pts, dtype=float)
        coords = ((pts + self.u.box_half_width) / self.u.spacing).T
        arr = coeffs[i]
        comp_shape = arr.shape[self.u.phase_dim:]
        flat = arr.reshape(arr.shape[:self.u.phase_dim] + (-1,))
        cols = [
            ndimage.map_coordinates(flat[..., c], coords, order=3,
                                    mode="grid-wrap", prefilter=False)
            for c in range(flat.shape[-1])
        ]
        out = np.stack(cols, axis=-1)
        return out.reshape(pts.shape[:-1] + comp_shape)

    def shift(self, i, pts):
        """u at slice i and points (m, 2d) -> (m, d)."""
        return self._interp(self._u_coeffs, i, pts)

    def velocity_gradient(self, i, pts):
        """grad_v u at slice i -> (m, d, d)."""
        return self._interp(self._gv_coeffs, i, pts)

    def H(self, i, pts):
        pts = np.asarray(pts, dtype=float)
        return pts[..., self.dim:] + self.shift(i, pts)

    def theta(self, i, pts):
        """(I + grad_v u) sigma, the noise map of the transformed system."""
        gv = self.velocity_gradient(i, pts)
        return (np.eye(self.dim) + gv) @ self.sigma

    def in_domain(self, pts):
        """True where every coordinate sits SEAM_MARGIN_CELLS clear of the
        periodic seam."""
        pts = np.asarray(pts, dtype=float)
        lim = self.u.box_half_width - SEAM_MARGIN_CELLS * self.u.spacing
        # one test per axis, ANDed: np.all over an axis only 2d wide costs
        # several times the tests themselves
        inside = np.abs(pts[..., 0]) <= lim
        for j in range(1, pts.shape[-1]):
            inside &= np.abs(pts[..., j]) <= lim
        return inside

    def velocity_ratio_sample(self, rng, num_pairs):
        """Ratios |H(x,v) - H(x,v')| / |v - v'| at random slices and points.

        Points fill the central half of the box; velocity pairs closer
        than 1e-8 are redrawn.
        """
        d = self.dim
        sample_radius = 0.5 * self.u.box_half_width
        min_separation = 1e-8
        idx = rng.integers(0, self.u.num_slices, size=num_pairs)
        x = rng.uniform(-sample_radius, sample_radius, size=(num_pairs, d))
        v = rng.uniform(-sample_radius, sample_radius, size=(num_pairs, d))
        vp = rng.uniform(-sample_radius, sample_radius, size=(num_pairs, d))
        for _ in range(64):
            close = np.linalg.norm(v - vp, axis=-1) < min_separation
            if not np.any(close):
                break
            vp[close] = rng.uniform(-sample_radius, sample_radius,
                                    size=(int(close.sum()), d))
        ratios = np.empty(num_pairs)
        for i in np.unique(idx):
            sel = idx == i
            za = np.concatenate([x[sel], v[sel]], axis=-1)
            zb = np.concatenate([x[sel], vp[sel]], axis=-1)
            num = np.linalg.norm(self.H(i, za) - self.H(i, zb), axis=-1)
            den = np.linalg.norm(v[sel] - vp[sel], axis=-1)
            ratios[sel] = num / den
        return ratios


def zvonkin_transform(u, sigma):
    """Build H = v + u after checking sup |grad_v u| <= 1/2.

    sigma must generate the diffusion the PDE was solved with
    (a = sigma sigma^T / 2); a violation of the gradient bound rejects the
    transform with the measured sup, since every Lipschitz sandwich
    downstream depends on it.
    """
    sigma = _as_sigma(sigma, u.dim)
    a_sigma = 0.5 * sigma @ sigma.T
    if not np.allclose(a_sigma, u.diffusion, rtol=1e-10, atol=1e-12):
        raise ValidationError(
            "sigma does not generate the diffusion the PDE was solved with"
        )
    gsup = u.gradient_v_sup()
    if gsup > 0.5:
        raise GradientBoundError(
            f"sup |grad_v u| = {gsup:.6f} exceeds 1/2; raise lam",
            measured=gsup,
        )
    u_coeffs = _prefilter(u.values, u.phase_dim)
    gv_coeffs = _prefilter(np.ascontiguousarray(u.grad_v()), u.phase_dim)
    return ZvonkinTransform(u, sigma, gsup, u_coeffs, gv_coeffs)


# ---------------------------------------------------------------------------
# pathwise identity check


@dataclass
class ResidualReport:
    """Monte Carlo statistics of the transformed-SDE residual at checkpoints."""

    times: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray
    num_paths: np.ndarray
    num_excluded: np.ndarray
    lam: float
    dt: float
    scheme: str


def transformed_sde_residual(transform, field, z0, brownian, num_paths, *,
                             checkpoints=None, scheme="em"):
    """Statistics of R_t = H_t(Z_t) - H_0(Z_0) - lam int u ds - int Theta dW.

    Z streams through ``integrator.map_walk`` with the given scheme on the
    field and noise grid the transform was built for; the stochastic
    integral uses left endpoints with the step's own Brownian increments
    (anything else would not be the Ito integral), while the time integral
    of u along the path is the trapezoid rule, which cancels the O(dt)
    quadrature bias and leaves the scheme's own weak error.  Paths that
    reach within SEAM_MARGIN_CELLS of the periodic seam are excluded from
    that checkpoint onward and counted.  Returns mean and standard error
    of R across surviving paths at each checkpoint.

    Each chunk of paths sends back only its per-checkpoint partial sums,
    sums of squares, survivor and exclusion counts, and the caller adds
    them to zeros in chunk order, so every bit of the report is the same
    for any KF_WORKERS.
    """
    u = transform.u
    d = u.dim
    if field.dim != d:
        raise ValidationError("field dimension does not match the transform")
    if field.constant_sigma is None or not np.allclose(
            field.constant_sigma, transform.sigma):
        raise ValidationError(
            "residual check needs the constant-sigma field the transform "
            "was built from"
        )
    steps, step = u.num_slices - 1, u.slice_dt
    # the PDE's last slice is the noise grid's last step
    if (brownian.num_steps != steps
            or step_index(u.horizon, brownian.dt, brownian.horizon) != steps):
        raise ValidationError(
            "integrator and PDE must share one time grid (same dt and steps)"
        )
    if checkpoints is None:
        checkpoints = tuple(u.horizon * q for q in (0.25, 0.5, 0.75, 1.0))
    cp_idx = np.atleast_1d(step_index(checkpoints, step, u.horizon)).tolist()
    if not cp_idx or cp_idx[0] < 1 or np.any(np.diff(cp_idx) <= 0):
        raise ValidationError(
            "checkpoints must be strictly increasing grid times after 0")
    nc = len(cp_idx)

    z0 = np.asarray(z0, dtype=float)
    if z0.ndim == 1:
        z0 = np.broadcast_to(z0, (num_paths, 2 * d))
    if z0.shape != (num_paths, 2 * d):
        raise ValidationError("z0 must be one state or (num_paths, 2d)")

    lamv = u.lam
    last = cp_idx[-1]

    def chunk_sums(steps):
        sums, sumsq = np.zeros((2, nc, d))
        counts, excluded = np.zeros((2, nc), dtype=int)
        for lo, hi, i, pts, dw in steps:
            if i > last:
                continue
            u_i = transform.shift(i, pts)
            if i == 0:
                alive = transform.in_domain(pts)
                u0, h0 = u_i, pts[:, d:] + u_i
                integ = np.zeros((hi - lo, d))
                mart = np.zeros((hi - lo, d))
                ci = 0
            else:
                alive &= transform.in_domain(pts)
            if i == cp_idx[ci]:
                quad = step * (integ + 0.5 * u_i - 0.5 * u0)
                resid = pts[:, d:] + u_i - h0 - lamv * quad - mart
                live = resid[alive]
                counts[ci] += live.shape[0]
                excluded[ci] += (hi - lo) - live.shape[0]
                sums[ci] += live.sum(axis=0)
                sumsq[ci] += (live ** 2).sum(axis=0)
                ci += 1
            if i < last:
                integ += u_i
                mart += np.einsum("ncj,nj->nc", transform.theta(i, pts), dw)
        return sums, sumsq, counts, excluded

    sums, sumsq = np.zeros((2, nc, d))
    counts, excluded = np.zeros((2, nc), dtype=int)
    for part in map_walk(field, z0, brownian, chunk_sums, scheme):
        for total, partial in zip((sums, sumsq, counts, excluded), part):
            total += partial

    mean = np.full((nc, d), np.nan)
    se = np.full((nc, d), np.nan)
    for c in range(nc):
        n = counts[c]
        if n >= 2:
            mean[c] = sums[c] / n
            var = np.maximum(sumsq[c] - n * mean[c] ** 2, 0.0) / (n - 1)
            se[c] = np.sqrt(var / n)
    return ResidualReport(
        times=u.times[cp_idx],
        mean=mean, std_error=se, num_paths=counts.copy(),
        num_excluded=excluded.copy(), lam=lamv, dt=step, scheme=scheme,
    )


# ---------------------------------------------------------------------------
# diagnostics


def pde_defect(u, source):
    """Centered-difference defect of d_t u + L u - lam u + f on interior slices.

    Spatial terms are spectral, the time derivative second order; the sup of
    the returned array measures how well the quadrature solution satisfies
    the backward equation between its slices.
    """
    if u.values.shape != source.values.shape:
        raise ValidationError("u and source must share one grid")
    if step_index(source.horizon, u.slice_dt, u.horizon) != u.num_slices - 1:
        raise ValidationError("u and source must share one time grid")
    d = u.dim
    n = u.points_per_axis
    step = u.slice_dt
    vals = u.values
    h = u.spacing
    mesh = grid_mesh(u.box_half_width, n, 2 * d)
    a = u.diffusion

    dtu = (vals[2:] - vals[:-2]) / (2.0 * step)
    transport = np.zeros_like(vals)
    for j in range(d):
        dx = _axis_derivative(vals, 1 + j, h)
        transport += mesh[d + j][None, ..., None] * dx
    diffuse = np.zeros_like(vals)
    for j in range(d):
        for l in range(d):
            if a[j, l] == 0.0:
                continue
            if j == l:
                term = _axis_derivative(vals, 1 + d + j, h, order=2)
            else:
                term = _axis_derivative(
                    _axis_derivative(vals, 1 + d + j, h), 1 + d + l, h
                )
            diffuse += a[j, l] * term
    lu = transport + diffuse
    return dtu + lu[1:-1] - u.lam * vals[1:-1] + source.values[1:-1]


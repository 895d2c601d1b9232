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
from scipy import ndimage

from .errors import (
    AccuracyError,
    GradientBoundError,
    LambdaTooSmallError,
    ValidationError,
)
from .grids import GridFunction, grid_mesh
from .integrator import WORK_CHUNK, evolve
from .kernel import (
    _apply_blur,
    _apply_shear,
    _blur_multiplier_spectral,
    _tail_mass_check,
    apply_semigroup,
    kernel_covariance,
)

# Picard stops once the sup-norm increment drops below PICARD_TOL and gives
# up after PICARD_MAX_ITER sweeps
PICARD_TOL = 1e-8
PICARD_MAX_ITER = 32
# paths within this many grid cells of the periodic seam leave the
# residual statistics
SEAM_MARGIN_CELLS = 4


def _axis_kinds(dim):
    return ("x",) * dim + ("v",) * dim


def _as_constant_diffusion(a, dim):
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = float(a) * np.eye(dim)
    if a.shape != (dim, dim) or not np.all(np.isfinite(a)):
        raise ValidationError(f"diffusion must be a finite ({dim}, {dim}) matrix")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValidationError("diffusion matrix must be symmetric")
    if np.linalg.eigvalsh(a).min() < -1e-12:
        raise ValidationError("diffusion matrix must be positive semidefinite")
    return a


def _as_sigma(sigma, dim):
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 0:
        sigma = float(sigma) * np.eye(dim)
    if sigma.shape != (dim, dim) or not np.all(np.isfinite(sigma)):
        raise ValidationError(f"sigma must be a finite ({dim}, {dim}) matrix")
    return sigma


def _axis_derivative(vals, axis, k, order=1):
    shape = [1] * vals.ndim
    shape[axis] = k.size
    mult = (1j * k.reshape(shape)) ** order
    return np.fft.ifft(np.fft.fft(vals, axis=axis) * mult, axis=axis).real


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
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValidationError("need at least two time slices")
        dts = np.diff(self.times)
        if self.times[0] != 0.0 or np.any(dts <= 0):
            raise ValidationError("times must increase from 0")
        if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
            raise ValidationError("time slices must be uniform")
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
        self.diffusion = _as_constant_diffusion(self.diffusion, d)
        self.box_half_width = float(self.box_half_width)
        if self.box_half_width <= 0:
            raise ValidationError("box_half_width must be positive")
        self.lam = float(self.lam)
        if self.lam < 0:
            raise ValidationError("lam must be >= 0")
        self.values.setflags(write=False)

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
            n = self.points_per_axis
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
            cols = [
                _axis_derivative(self.values, 1 + d + j, k) for j in range(d)
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


def duhamel_resolvent(source, lam, horizon=None, *, method="recursive",
                      tail_tol=1e-6):
    """u_t = integral_t^T exp(lam (t-s)) P_{t,s} f_s ds, trapezoid in s.

    P is the transition operator of the source's own diffusion, applied by
    the spectral kernel backend.  The slice grid of the source is the
    quadrature grid; the s = t endpoint contributes through
    P_{t,t} = identity.  'recursive' evaluates the trapezoid sum by one
    fixed-gap transition per backward step (the transition operators
    compose exactly, so this equals the direct sum up to rounding);
    'direct' performs the O(slices^2) sum and exists to cross-check the
    recursion.  Both share the seam guard of the kernel applies via
    tail_tol.
    """
    if lam < 0:
        raise ValidationError("lam must be >= 0")
    a = source.diffusion
    if horizon is not None and not np.isclose(horizon, source.horizon):
        raise ValidationError("horizon does not match the source time grid")
    if method not in ("recursive", "direct"):
        raise ValidationError(f"unknown quadrature method {method!r}")
    nt = source.num_slices - 1
    step = source.slice_dt
    g = source.values
    out = np.zeros_like(g)
    template = source.slice_grid(0)

    if method == "recursive":
        cov = kernel_covariance(a, 0.0, step)
        mult = _blur_multiplier_spectral(template, cov)
        decay = np.exp(-lam * step)
        half = 0.5 * step
        for i in range(nt - 1, -1, -1):
            carry = template.with_values(out[i + 1] + half * g[i + 1])
            _tail_mass_check(carry, cov, tol=tail_tol)
            stepped = _apply_shear(carry, _apply_blur(carry, mult), cov.gap)
            out[i] = decay * stepped + half * g[i]
    else:
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
    a = _as_constant_diffusion(a, dim)
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
    time); both advance the search.
    """
    lam = float(lam_init)
    for _ in range(max_doublings):
        try:
            res = picard_solve(
                drift, lam, horizon, a, box_half_width=box_half_width,
                points_per_axis=points_per_axis, num_slices=num_slices, dim=dim)
        except (LambdaTooSmallError, AccuracyError):
            lam *= 2.0
            continue
        if res.u.gradient_v_sup() <= gradient_target:
            return res
        lam *= 2.0
    raise LambdaTooSmallError(
        f"gradient target {gradient_target:g} not reached up to lam={lam:g}"
    )


# ---------------------------------------------------------------------------
# the transform


def _prefilter(values, num_grid_axes, first_grid_axis=1):
    """Cubic spline coefficients along the grid axes only (periodic)."""
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
        return np.all(np.abs(pts) <= lim, axis=-1)

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
                             checkpoints=None, scheme="em", quadrature="trapezoid"):
    """Statistics of R_t = H_t(Z_t) - H_0(Z_0) - lam int u ds - int Theta dW.

    Z is integrated with the given scheme on the same field and noise grid
    the transform was built for; the stochastic integral always uses left
    endpoints with the recorded Brownian increments (anything else would
    not be the Ito integral), while the time integral of u along the path
    uses ``quadrature`` ('trapezoid' or 'left'; trapezoid cancels the
    O(dt) quadrature bias, leaving the scheme's own weak error).  Paths
    that reach within SEAM_MARGIN_CELLS of the periodic seam are excluded
    from that checkpoint onward and counted.  Returns mean and standard error
    of R across surviving paths at each checkpoint.
    """
    if quadrature not in ("trapezoid", "left"):
        raise ValidationError(f"unknown quadrature {quadrature!r}")
    u = transform.u
    d = u.dim
    if field.dim != d:
        raise ValidationError("field dimension does not match the transform")
    if field.constant_sigma is None or not np.allclose(
            _as_sigma(field.constant_sigma, d), transform.sigma):
        raise ValidationError(
            "residual check needs the constant-sigma field the transform "
            "was built from"
        )
    steps = u.num_slices - 1
    if brownian.num_steps != steps or not np.isclose(brownian.dt, u.slice_dt):
        raise ValidationError(
            "integrator and PDE must share one time grid (same dt and steps)"
        )
    if checkpoints is None:
        checkpoints = tuple(u.horizon * q for q in (0.25, 0.5, 0.75, 1.0))
    step = u.slice_dt
    cp_idx = []
    for t in checkpoints:
        j = int(round(t / step))
        if not (1 <= j <= steps) or abs(j * step - t) > 1e-9 * max(1.0, steps):
            raise ValidationError(
                f"checkpoint {t!r} does not lie on the shared time grid"
            )
        cp_idx.append(j)
    if sorted(cp_idx) != cp_idx:
        raise ValidationError("checkpoints must increase")
    nc = len(cp_idx)

    z0 = np.asarray(z0, dtype=float)
    if z0.ndim == 1:
        z0 = np.broadcast_to(z0, (num_paths, 2 * d))
    if z0.shape != (num_paths, 2 * d):
        raise ValidationError("z0 must be one state or (num_paths, 2d)")

    lamv = u.lam
    sums = np.zeros((nc, d))
    sumsq = np.zeros((nc, d))
    counts = np.zeros(nc, dtype=int)
    excluded = np.zeros(nc, dtype=int)

    for lo in range(0, num_paths, WORK_CHUNK):
        hi = min(lo + WORK_CHUNK, num_paths)
        traj = evolve(field, np.array(z0[lo:hi]), brownian, scheme=scheme,
                      path_offset=lo)
        dw = brownian.increments(lo, hi)
        states = traj.states
        nb = hi - lo
        alive = transform.in_domain(states[:, 0])
        u0 = transform.shift(0, states[:, 0])
        h0 = states[:, 0, d:] + u0
        integ = np.zeros((nb, d))
        mart = np.zeros((nb, d))
        ci = 0
        for i in range(steps):
            pts = states[:, i]
            if i > 0:
                alive &= transform.in_domain(pts)
            integ += transform.shift(i, pts)
            th = transform.theta(i, pts)
            mart += np.einsum("ncj,nj->nc", th, dw[:, i])
            if i + 1 == cp_idx[ci]:
                pts_c = states[:, i + 1]
                alive_c = alive & transform.in_domain(pts_c)
                u_c = transform.shift(i + 1, pts_c)
                h_c = pts_c[:, d:] + u_c
                if quadrature == "trapezoid":
                    quad = step * (integ + 0.5 * u_c - 0.5 * u0)
                else:
                    quad = step * integ
                resid = h_c - h0 - lamv * quad - mart
                live = resid[alive_c]
                counts[ci] += live.shape[0]
                excluded[ci] += nb - live.shape[0]
                sums[ci] += live.sum(axis=0)
                sumsq[ci] += (live ** 2).sum(axis=0)
                ci += 1
                if ci == nc:
                    break

    mean = np.full((nc, d), np.nan)
    se = np.full((nc, d), np.nan)
    for c in range(nc):
        n = counts[c]
        if n >= 2:
            mean[c] = sums[c] / n
            var = np.maximum(sumsq[c] - n * mean[c] ** 2, 0.0) / (n - 1)
            se[c] = np.sqrt(var / n)
    return ResidualReport(
        times=np.asarray([u.times[j] for j in cp_idx]),
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
    if not np.allclose(u.times, source.times):
        raise ValidationError("u and source must share one time grid")
    d = u.dim
    n = u.points_per_axis
    step = u.slice_dt
    vals = u.values
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=u.spacing)
    mesh = grid_mesh(u.box_half_width, n, 2 * d)
    a = u.diffusion

    dtu = (vals[2:] - vals[:-2]) / (2.0 * step)
    transport = np.zeros_like(vals)
    for j in range(d):
        dx = _axis_derivative(vals, 1 + j, k)
        transport += mesh[d + j][None, ..., None] * dx
    diffuse = np.zeros_like(vals)
    for j in range(d):
        for l in range(d):
            if a[j, l] == 0.0:
                continue
            if j == l:
                term = _axis_derivative(vals, 1 + d + j, k, order=2)
            else:
                term = _axis_derivative(
                    _axis_derivative(vals, 1 + d + j, k), 1 + d + l, k
                )
            diffuse += a[j, l] * term
    lu = transport + diffuse
    return dtu + lu[1:-1] - u.lam * vals[1:-1] + source.values[1:-1]


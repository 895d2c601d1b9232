"""Gaussian transition kernel of the free kinetic system.

For dX = V dt, dV = sigma dW with constant sigma the transition operator
over [t, s] acts as

    P_{t,s} f(x, v) = E f(x + (s-t) v + X_gap, v + V_gap),

where (X_gap, V_gap) is the centered Gaussian displacement with covariance
blocks, for a = sigma sigma* / 2 and h = s - t,

    C_xx = 2a h^3 / 3,    C_xv = a h^2,    C_vv = 2a h.

The operator factors as (Gaussian blur) followed by (shear x -> x + (s-t) v);
both factors are exact on band-limited periodic data, which is what the two
grid backends exploit: the spectral backend multiplies by the analytic
characteristic function, the Gauss-Hermite backend rebuilds the same
multiplier from tensor quadrature in the displacement, so the pair form a
mutual cross-check with independent failure modes.

``KernelStep`` builds both factors and the periodic-seam guard once for a
grid layout and a gap, and applies them in the mixed layout: rfft along
the x axes, real space along the v axes.  There the shear is a pointwise
phase exp(i k_x (s-t) v) and the blur a transform along v only, so a step
is two passes over the n/2 + 1 rows of the half spectrum.  Each factor is
stored as its Hermitian part (M(k) + conj M(-k)) / 2, which is what taking
the real part after a full complex multiplier amounts to on real data;
it differs from M on the Nyquist planes only, and it keeps the half
spectrum that of a real field.  ``apply_semigroup`` and the resolvent
recursion apply the transition through it; the recursion stays in the
mixed layout from its first slice to its last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DegenerateKernelError, ProbeInvalidError, ValidationError

__all__ = [
    "KernelCovariance",
    "KernelStep",
    "diffusion_matrix",
    "kernel_covariance",
    "kernel_density",
    "kernel_sample",
    "apply_semigroup",
    "gradient_scaling_probe",
    "anisotropic_smoothing_probe",
    "MIN_TIME_GAP",
    "SEAM_TAIL_TOL",
]

# Below this gap the x-block scale h^3/3 is too close to rounding for a stable
# factorization of the joint covariance.
MIN_TIME_GAP = (1000.0 * np.finfo(float).eps) ** (1.0 / 3.0)
# the seam guard rejects a slice whose mass within kernel reach of the
# periodic boundary exceeds this share of its total
SEAM_TAIL_TOL = 1e-6


# ---------------------------------------------------------------------------
# covariance


@dataclass(frozen=True)
class KernelCovariance:
    """Covariance blocks of the Gaussian displacement over one time gap."""

    gap: float
    c_xx: np.ndarray
    c_xv: np.ndarray
    c_vv: np.ndarray

    @property
    def dim(self):
        return self.c_xx.shape[0]

    def matrix(self):
        """Full 2d x 2d covariance in (x..., v...) ordering."""
        top = np.hstack([self.c_xx, self.c_xv])
        bot = np.hstack([self.c_xv.T, self.c_vv])
        return np.vstack([top, bot])

    def cholesky(self):
        m = self.matrix()
        try:
            return np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            # jitter at the scale of the smallest block; the gap guard makes
            # this a last resort, not a silent crutch
            jitter = 1e-14 * np.trace(m) / m.shape[0]
            return np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))


def diffusion_matrix(a, dim=None):
    """Validate ``a`` as a finite symmetric PSD (dim, dim) diffusion matrix.

    A scalar stands for a times the identity (of size 1 when dim is None);
    a matrix must be square, and (dim, dim) when dim is given.
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim == 0:
        mat = float(mat) * np.eye(1 if dim is None else dim)
    n = mat.shape[0] if dim is None else dim
    if mat.shape != (n, n) or not np.all(np.isfinite(mat)):
        raise ValidationError(
            f"diffusion must be a finite square matrix of size {n}, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ValidationError("diffusion matrix must be symmetric")
    if np.linalg.eigvalsh(mat).min() < -1e-12:
        raise ValidationError("diffusion matrix must be positive semidefinite")
    return mat


def kernel_covariance(a, t, s):
    """Covariance blocks of the displacement over [t, s] for generator matrix a.

    ``a`` is the constant second-order coefficient (so sigma sigma* = 2a),
    a scalar or a matrix; the blocks are the closed forms 2a h^3/3, a h^2,
    2a h.
    """
    h = float(s) - float(t)
    if not np.isfinite(h):
        raise ValidationError(f"time gap must be finite, got {h}")
    if h < MIN_TIME_GAP:
        raise DegenerateKernelError(
            f"time gap {h:.3e} below stable factorization floor {MIN_TIME_GAP:.3e}"
        )
    two_a = 2.0 * diffusion_matrix(a)
    return KernelCovariance(
        gap=h,
        c_xx=two_a * h**3 / 3.0,
        c_xv=two_a * h**2 / 2.0,
        c_vv=two_a * h,
    )


# ---------------------------------------------------------------------------
# density and sampling


def _mean_after_gap(z0, h):
    z0 = np.asarray(z0, dtype=float)
    d = z0.shape[-1] // 2
    x0, v0 = z0[..., :d], z0[..., d:]
    return np.concatenate([x0 + h * v0, v0], axis=-1)


def kernel_density(z0, z, t, s, a):
    """Transition density value(s) p_{t,s}(z0, z) of the free kinetic flow."""
    cov = kernel_covariance(a, t, s)
    z0 = np.asarray(z0, dtype=float)
    z = np.asarray(z, dtype=float)
    if z0.shape[-1] != 2 * cov.dim or z.shape[-1] != 2 * cov.dim:
        raise ValidationError("state dimension does not match the diffusion matrix")
    mean = _mean_after_gap(z0, cov.gap)
    diff = z - mean
    m = cov.matrix()
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise DegenerateKernelError("kernel covariance is numerically singular")
    sol = np.linalg.solve(m, diff[..., None])[..., 0]
    quad = np.sum(diff * sol, axis=-1)
    dim_total = 2 * cov.dim
    return np.exp(-0.5 * quad) / np.sqrt((2.0 * np.pi) ** dim_total * np.exp(logdet))


def kernel_sample(z0, t, s, a, rng, n_samples):
    """Draw n_samples exact transitions from state z0 over [t, s]."""
    cov = kernel_covariance(a, t, s)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (2 * cov.dim,):
        raise ValidationError("z0 must be a single state of dimension 2d")
    mean = _mean_after_gap(z0, cov.gap)
    chol = cov.cholesky()
    normals = rng.standard_normal((int(n_samples), 2 * cov.dim))
    return mean + normals @ chol.T


# ---------------------------------------------------------------------------
# grid application


def _phase_space_split(f):
    x_axes = f.axes_of_kind("x")
    v_axes = f.axes_of_kind("v")
    if len(x_axes) != len(v_axes) or len(x_axes) == 0:
        raise ValidationError("kernel application needs matching x and v axis counts")
    if x_axes != tuple(range(len(x_axes))):
        raise ValidationError("grid axes must be ordered (x..., v...)")
    return x_axes, v_axes


def _blur_multiplier_spectral(ks, cov):
    m = cov.matrix()
    quad = np.zeros((ks[0].size,) * len(ks))
    for i in range(len(ks)):
        for j in range(len(ks)):
            if m[i, j] != 0.0:
                quad = quad + m[i, j] * ks[i] * ks[j]
    return np.exp(-0.5 * quad)


def _blur_multiplier_hermite(ks, cov, order):
    # E exp(i k . A u) approximated by tensor Gauss-Hermite; separability in the
    # standardized coordinates collapses the tensor sum to a product of 1-d sums.
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / weights.sum()
    chol = cov.cholesky()
    g = len(ks)
    mult = np.ones((ks[0].size,) * g, dtype=complex)
    for col in range(g):
        theta = np.zeros((ks[0].size,) * g)
        for row in range(g):
            if chol[row, col] != 0.0:
                theta = theta + chol[row, col] * ks[row]
        mult = mult * (np.exp(1j * np.multiply.outer(theta, nodes)) @ weights)
    return mult


def _hermitian_part(mult, axes):
    """(M(k) + conj M(-k)) / 2, with -k taken modulo the grid along axes."""
    mirrored = np.roll(np.flip(mult, axes), (1,) * len(axes), axes)
    return 0.5 * (mult + np.conj(mirrored))


# Gauss-Hermite nodes per axis of the 'hermite' semigroup backend
HERMITE_ORDER = 160


class KernelStep:
    """The transition P_{t,t+gap} on one grid layout, built once per gap.

    ``grid`` is any GridFunction of the layout (its values are not used);
    arguments are those of apply_semigroup.  The step works in the mixed
    layout: rfft along the x axes, real space along the v axes.  There the
    shear x -> x + gap v is the pointwise phase exp(i k_x gap v), and the
    blur is an fft along v, a multiply and an ifft along v: two passes
    over n/2 + 1 rows instead of full complex passes over (x, v).

    Both multipliers are stored as their Hermitian parts
    (M(k) + conj M(-k)) / 2, with -k taken modulo the grid: the blur over
    all grid axes, the shear over the x axes, each then cut to the rfft
    half spectrum.  On real data, multiplying by the Hermitian part is the
    same as multiplying by M and taking the real part.  The two differ
    only on Nyquist planes, where fftfreq gives -k the same (negative)
    wavenumber as k, so the blur's x-v cross term and the shear phase are
    not even there.  Without the symmetrization a Hoelder cusp in x, which
    has Nyquist content, moves by 1e-5 of its size (d = 1, n = 64).

    ``to_mixed``, ``transport`` and ``from_mixed`` accept leading batch
    axes before the layout's grid axes and trailing components; ``guard``
    checks one slice against the periodic seam at SEAM_TAIL_TOL, read
    when it runs.  Calling the step on one slice runs guard, to_mixed,
    transport and from_mixed.

    ``to_mixed`` and ``from_mixed`` run on ``scipy.fft``, which loads at
    their first call, and ``transport`` on ``numpy.fft``.  All run on one
    thread: under KF_WORKERS > 1 the resolvent already runs inside a
    forked lam task, one task per core.  In process, which module runs
    which pass does not pay either way: over 15 interleaved 128^2 x 128
    `duhamel_resolvent` calls, this split took a median 0.047 s, numpy.fft
    throughout 0.048 s and scipy.fft throughout 0.047 s, with the same
    bits (KF_WORKERS=1).  In forked lam tasks numpy.fft throughout is
    slower: fresh `zvonkin` runs (T = 1, dt = 1/128, N = 32768, lam = 1,
    KF_WORKERS=2) took a median 5.13 s against 4.18 s for this split,
    slower in 8 of 8 alternating pairs, with byte-identical CSVs; the
    cause is unmeasured.  (2-core x86-64 host, numpy 2.4, scipy 1.17;
    the run manifest records both versions.)
    """

    def __init__(self, grid, a, gap, method="spectral"):
        if method not in ("spectral", "hermite"):
            raise ValidationError(f"unknown backend {method!r}")
        cov = kernel_covariance(a, 0.0, gap)
        if 2 * cov.dim != grid.num_grid_axes:
            raise ValidationError("grid dimension does not match the diffusion matrix")
        x_axes, v_axes = _phase_space_split(grid)
        ks = grid.mode_vectors()
        if method == "spectral":
            blur = _blur_multiplier_spectral(ks, cov)
        else:
            blur = _blur_multiplier_hermite(ks, cov, HERMITE_ORDER)
        coords = grid.axis_coordinates()
        shear = np.ones(blur.shape, dtype=complex)
        for xa, va in zip(x_axes, v_axes):
            v = coords.reshape(ks[va].shape)
            shear = shear * np.exp(1j * ks[xa] * (cov.gap * v))
        grid_axes = tuple(range(grid.num_grid_axes))
        # axes count from the end, so batches of slices share the step
        ncomp = len(grid.component_shape)
        back = grid.num_grid_axes + ncomp
        self.n = grid.points_per_axis
        half = [slice(None)] * grid.num_grid_axes
        half[x_axes[-1]] = slice(0, self.n // 2 + 1)
        to_layout = tuple(half) + (None,) * ncomp
        self.blur = _hermitian_part(blur, grid_axes)[to_layout]
        self.shear = _hermitian_part(shear, x_axes)[to_layout]
        self.x_axes = tuple(ax - back for ax in x_axes)
        self.v_axes = tuple(ax - back for ax in v_axes)
        self.grid_axes = grid_axes
        # mass within 5 standard deviations of the seam would wrap
        sig_x = math.sqrt(max(np.max(np.linalg.eigvalsh(cov.c_xx)), 0.0))
        sig_v = math.sqrt(max(np.max(np.linalg.eigvalsh(cov.c_vv)), 0.0))
        reach_x = 5.0 * (sig_x + cov.gap * sig_v)
        reach_v = 5.0 * sig_v
        L = grid.box_half_width
        mesh = grid.mesh()
        self.escapes = np.zeros(blur.shape, dtype=bool)
        for xa, va in zip(x_axes, v_axes):
            self.escapes |= np.abs(mesh[xa] + cov.gap * mesh[va]) + reach_x > L
            self.escapes |= np.abs(mesh[va]) + reach_v > L

    def guard(self, values):
        """Raise AccuracyError if one slice has more than SEAM_TAIL_TOL of
        its mass near the seam."""
        if values.ndim > len(self.grid_axes):
            comp_axes = tuple(range(len(self.grid_axes), values.ndim))
            mag = np.sqrt(np.sum(values**2, axis=comp_axes))
        else:
            mag = np.abs(values)
        total = mag.sum()
        if total != 0.0 and mag[self.escapes].sum() > SEAM_TAIL_TOL * total:
            raise AccuracyError(
                "field mass within kernel reach of the periodic boundary exceeds "
                f"{SEAM_TAIL_TOL:g} of total; enlarge the box or shrink the gap"
            )

    def to_mixed(self, values):
        """Real values -> mixed layout (rfft along the x axes)."""
        import scipy.fft

        return scipy.fft.rfftn(values, axes=self.x_axes)

    def transport(self, mixed):
        """One transition on mixed-layout data: blur along v, then shear."""
        spec = np.fft.fftn(mixed, axes=self.v_axes)
        spec *= self.blur
        out = np.fft.ifftn(spec, axes=self.v_axes)
        out *= self.shear
        return out

    def from_mixed(self, mixed):
        """Mixed layout -> real values (irfft along the x axes)."""
        import scipy.fft

        return scipy.fft.irfftn(mixed, s=(self.n,) * len(self.x_axes),
                                axes=self.x_axes)

    def __call__(self, values):
        self.guard(values)
        return self.from_mixed(self.transport(self.to_mixed(values)))


def apply_semigroup(f, t, s, a, method="spectral"):
    """Apply the transition operator P_{t,s} to a periodic GridFunction.

    method 'spectral' multiplies by the analytic Gaussian characteristic
    function; 'hermite' rebuilds that multiplier from tensor Gauss-Hermite
    quadrature of order HERMITE_ORDER in the displacement (each displaced
    evaluation being an exact spectral translation).  Fields with more
    than SEAM_TAIL_TOL of their mass near the periodic seam are rejected.
    At s == t the grid axes and ``a`` are checked as for s > t, and the
    result is a copy of f.
    """
    if method not in ("spectral", "hermite"):
        raise ValidationError(f"unknown backend {method!r}")
    t, s = float(t), float(s)
    if not (np.isfinite(t) and s >= t):
        raise ValidationError(f"need finite t <= s, got t={t}, s={s}")
    if s == t:
        # the checks KernelStep makes for s > t
        diffusion_matrix(a, len(_phase_space_split(f)[0]))
        return f.with_values(f.values.copy())
    step = KernelStep(f, a, s - t, method=method)
    return f.with_values(step(f.values))


# ---------------------------------------------------------------------------
# scaling probes (semi-analytic)
#
# A fixed probe bump exp(-|z|^2 / 2 w^2) with w far below every smoothing
# scale in the ladder is pushed through P_{0,h} in closed form; L2 norms of
# derivatives become Gaussian moments in Fourier space (Plancherel), and the
# normalized sequence ||D P f||_2 / ||P f||_2 carries exactly the anisotropic
# smoothing exponents.  A grid cannot represent these bumps over a
# multi-decade ladder, which is why the probe is analytic.

# width of the probe bump, narrow against every smoothing scale of a ladder
PROBE_WIDTH = 1e-6
# tensor Gauss-Hermite orders of the gradient and anisotropic probes
GRADIENT_PROBE_ORDER = 12
ANISOTROPIC_PROBE_ORDER = 96


def _probe_second_moment(cov):
    """Inverse-shape matrix and shear for the pushed-forward probe spectrum."""
    if cov.dim != 1:
        raise ValidationError("scaling probes are implemented for d = 1")
    c = cov.matrix()
    omega_inv = 2.0 * c + 2.0 * PROBE_WIDTH**2 * np.eye(2)
    omega = np.linalg.inv(omega_inv)
    return omega


def _gauss_hermite_expect(fn, omega, order):
    """E fn(K1, K2) for K ~ N(0, omega) by tensor Gauss-Hermite."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / weights.sum()
    chol = np.linalg.cholesky(omega)
    u1 = np.add.outer(chol[0, 0] * nodes, 0.0 * nodes)
    u2 = np.add.outer(chol[1, 0] * nodes, chol[1, 1] * nodes)
    vals = fn(u1, u2)
    return float(weights @ vals @ weights)


def _validate_ladder(h_ladder):
    h = np.asarray(h_ladder, dtype=float)
    if h.ndim != 1 or h.size < 4:
        raise ValidationError("ladder needs at least 4 gaps")
    if np.any(h <= 0) or np.any(np.diff(h) <= 0):
        raise ValidationError("ladder must be positive and strictly increasing")
    if h[-1] / h[0] < 10.0:
        raise ValidationError("ladder must span at least one decade")
    return h


def _check_monotone(values):
    v = np.asarray(values)
    scale = np.max(np.abs(v))
    tol = 1e-9 * scale
    up = np.all(np.diff(v) >= -tol)
    down = np.all(np.diff(v) <= tol)
    if not (up or down):
        raise ProbeInvalidError("probe norms are not monotone across the ladder")


def _fit_slope(h, values):
    x = np.log(h)
    y = np.log(values)
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def gradient_scaling_probe(a, k, m, h_ladder):
    """Fit the decay exponent of ||d_x^k d_v^m P_{0,h} f||_2 / ||P_{0,h} f||_2.

    ``f`` is the fixed Gaussian probe bump of width PROBE_WIDTH (narrow
    against every smoothing scale in the ladder, so the normalized norm decays
    at the anisotropic rate -(3k+m)/2; (k, m) = (0, 0) gives slope 0, the
    contraction).  Norms are evaluated in closed form in Fourier space, the
    slope by least squares in log-log; a non-monotone norm sequence raises
    ProbeInvalidError.
    """
    if k < 0 or m < 0:
        raise ValidationError("derivative orders must be nonnegative")
    h = _validate_ladder(h_ladder)
    norms = []
    for gap in h:
        cov = kernel_covariance(a, 0.0, gap)
        omega = _probe_second_moment(cov)
        val = _gauss_hermite_expect(
            lambda k1, k2: k1 ** (2 * k) * (k2 + gap * k1) ** (2 * m),
            omega,
            max(GRADIENT_PROBE_ORDER, k + m + 2),
        )
        norms.append(math.sqrt(max(val, 0.0)))
    norms = np.asarray(norms)
    if np.any(norms == 0.0):
        raise ProbeInvalidError("probe produced vanishing norms")
    _check_monotone(norms)
    return _fit_slope(h, norms), norms


def anisotropic_smoothing_probe(a, alpha, h_ladder):
    """Normalized position-regularity norm of P_{0,h} f across an h ladder.

    Returns the sequence  sqrt(E (1 + K_x^2)^alpha) * h^(3 alpha / 2)  for the
    pushed-forward probe bump; the smoothing envelope bound says this product
    stays within a bounded band across the ladder.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValidationError(f"alpha must be in (0, 2], got {alpha}")
    h = _validate_ladder(h_ladder)
    products = []
    for gap in h:
        cov = kernel_covariance(a, 0.0, gap)
        omega = _probe_second_moment(cov)
        val = _gauss_hermite_expect(
            lambda k1, k2: (1.0 + k1 * k1) ** alpha,
            omega,
            ANISOTROPIC_PROBE_ORDER,
        )
        products.append(math.sqrt(max(val, 0.0)) * gap ** (1.5 * alpha))
    return np.asarray(products)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DegenerateKernelError, ProbeInvalidError, ValidationError

__all__ = [
    "KernelCovariance",
    "kernel_covariance",
    "kernel_density",
    "kernel_sample",
    "apply_semigroup",
    "gradient_scaling_probe",
    "anisotropic_smoothing_probe",
    "MIN_TIME_GAP",
]

# Below this gap the x-block scale h^3/3 is too close to rounding for a stable
# factorization of the joint covariance.
MIN_TIME_GAP = (1000.0 * np.finfo(float).eps) ** (1.0 / 3.0)


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


def _as_diffusion(a):
    """Validate `a` (scalar or matrix) as a square symmetric PSD matrix."""
    mat = np.asarray(a, dtype=float)
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"diffusion matrix must be square, got shape {mat.shape}")
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
    if h < MIN_TIME_GAP:
        raise DegenerateKernelError(
            f"time gap {h:.3e} below stable factorization floor {MIN_TIME_GAP:.3e}"
        )
    two_a = 2.0 * _as_diffusion(a)
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


def _tail_mass_check(f, cov, tol=1e-6):
    """Reject fields whose mass would be transported across the periodic seam."""
    if not np.isfinite(tol):
        _phase_space_split(f)
        return
    x_axes, v_axes = _phase_space_split(f)
    d = len(x_axes)
    L = f.box_half_width
    h = cov.gap
    sig_x = math.sqrt(max(np.max(np.linalg.eigvalsh(cov.c_xx)), 0.0))
    sig_v = math.sqrt(max(np.max(np.linalg.eigvalsh(cov.c_vv)), 0.0))
    reach_x = 5.0 * (sig_x + h * sig_v)
    reach_v = 5.0 * sig_v
    mesh = f.mesh()
    mag = np.abs(f.values)
    if f.component_shape:
        mag = np.sqrt(np.sum(f.values**2, axis=tuple(range(f.num_grid_axes, f.values.ndim))))
    escapes = np.zeros(mag.shape, dtype=bool)
    for i in range(d):
        x_i, v_i = mesh[x_axes[i]], mesh[v_axes[i]]
        escapes |= np.abs(x_i + h * v_i) + reach_x > L
        escapes |= np.abs(v_i) + reach_v > L
    total = mag.sum()
    if total == 0.0:
        return
    if mag[escapes].sum() > tol * total:
        raise AccuracyError(
            "field mass within kernel reach of the periodic boundary exceeds "
            f"{tol:g} of total; enlarge the box or shrink the gap"
        )


def _mode_vectors(f):
    k = f.wavenumbers()
    n = f.points_per_axis
    g = f.num_grid_axes
    comps = []
    for a in range(g):
        shape = [1] * g
        shape[a] = n
        comps.append(k.reshape(shape))
    return comps


def _blur_multiplier_spectral(f, cov):
    ks = _mode_vectors(f)
    m = cov.matrix()
    g = f.num_grid_axes
    quad = np.zeros((f.points_per_axis,) * g)
    for i in range(g):
        for j in range(g):
            if m[i, j] != 0.0:
                quad = quad + m[i, j] * ks[i] * ks[j]
    return np.exp(-0.5 * quad)


def _blur_multiplier_hermite(f, cov, order):
    # E exp(i k . A u) approximated by tensor Gauss-Hermite; separability in the
    # standardized coordinates collapses the tensor sum to a product of 1-d sums.
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / weights.sum()
    chol = cov.cholesky()
    ks = _mode_vectors(f)
    g = f.num_grid_axes
    mult = np.ones((f.points_per_axis,) * g, dtype=complex)
    for col in range(g):
        theta = np.zeros((f.points_per_axis,) * g)
        for row in range(g):
            if chol[row, col] != 0.0:
                theta = theta + chol[row, col] * ks[row]
        mult = mult * (np.exp(1j * np.multiply.outer(theta, nodes)) @ weights)
    return mult


def _apply_blur(f, mult):
    grid_axes = tuple(range(f.num_grid_axes))
    mult = mult.reshape(mult.shape + (1,) * len(f.component_shape))
    spec = np.fft.fftn(f.values, axes=grid_axes)
    return np.fft.ifftn(spec * mult, axes=grid_axes).real


def _apply_shear(f, values, h):
    """g(x, v) = values(x + h v, v) via exact per-slice translation in x."""
    x_axes, v_axes = _phase_space_split(f)
    k = f.wavenumbers()
    coords = f.axis_coordinates()
    g = f.num_grid_axes
    spec = np.fft.fftn(values, axes=x_axes)
    phase = np.ones((f.points_per_axis,) * g, dtype=complex)
    for xa, va in zip(x_axes, v_axes):
        shape_k = [1] * g
        shape_k[xa] = f.points_per_axis
        shape_v = [1] * g
        shape_v[va] = f.points_per_axis
        phase = phase * np.exp(
            1j * k.reshape(shape_k) * (h * coords.reshape(shape_v))
        )
    phase = phase.reshape(phase.shape + (1,) * (values.ndim - g))
    return np.fft.ifftn(spec * phase, axes=x_axes).real


# Gauss-Hermite nodes per axis of the 'hermite' semigroup backend
HERMITE_ORDER = 160


def apply_semigroup(f, t, s, a, method="spectral", tail_tol=1e-6):
    """Apply the transition operator P_{t,s} to a periodic GridFunction.

    method 'spectral' multiplies by the analytic Gaussian characteristic
    function; 'hermite' rebuilds that multiplier from tensor Gauss-Hermite
    quadrature of order HERMITE_ORDER in the displacement (each displaced
    evaluation being an exact spectral translation).  The backend used is recorded in the result's
    meta.  Fields with visible mass near the periodic seam are rejected at
    relative tolerance ``tail_tol``; pass ``np.inf`` only for data that is
    genuinely periodic (a constant, say), where wrap-around is not an error.
    """
    if method not in ("spectral", "hermite"):
        raise ValidationError(f"unknown backend {method!r}")
    if s < t:
        raise ValidationError("backward application not defined (need s >= t)")
    if s == t:
        return f.with_values(f.values.copy(), backend=method, gap=0.0)
    cov = kernel_covariance(a, t, s)
    if 2 * cov.dim != f.num_grid_axes:
        raise ValidationError("grid dimension does not match the diffusion matrix")
    _tail_mass_check(f, cov, tol=tail_tol)
    if method == "spectral":
        mult = _blur_multiplier_spectral(f, cov)
    else:
        mult = _blur_multiplier_hermite(f, cov, HERMITE_ORDER)
    blurred = _apply_blur(f, mult)
    sheared = _apply_shear(f, blurred, cov.gap)
    return f.with_values(sheared, backend=method, gap=cov.gap)


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

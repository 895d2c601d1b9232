"""Norms, smoothing operators and maximal functions on periodic grids.

Everything here acts on :class:`~kinetic_flow.grids.GridFunction` samples via
the FFT; the box is periodic by construction, so callers are responsible for
using fields that decay inside the box (the operators do not window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .grids import fourier_multiply

__all__ = [
    "Mollifier",
    "bessel_norm",
    "spectral_derivative",
    "spectral_gradient",
    "maximal_function",
    "lipschitz_via_maximal_check",
    "LipschitzReport",
    "lp_norm",
]


# ---------------------------------------------------------------------------
# mollifier


# _quad_normalization's results for the phase dimensions 2d of d = 1 and
# d = 2, so that a run loads no scipy.integrate; a test recomputes both
_NORMALIZATION_TABLE = {
    2: float.fromhex("0x1.12605d03ed1f9p+1"),
    4: float.fromhex("0x1.4e39970d09b82p+1"),
}


@lru_cache(maxsize=None)
def _bump_normalization(dim):
    if dim in _NORMALIZATION_TABLE:
        return _NORMALIZATION_TABLE[dim]
    return _quad_normalization(dim)


def _quad_normalization(dim):
    # c such that the smooth bump c*exp(-1/(1-|z|^2)) on the unit ball of R^dim
    # has unit mass.  Radial reduction: mass = c * S_{dim-1} * int_0^1 e^{-1/(1-r^2)} r^{dim-1} dr.
    from scipy import integrate

    radial, err = integrate.quad(
        lambda r: math.exp(-1.0 / (1.0 - r * r)) * r ** (dim - 1), 0.0, 1.0,
        epsabs=1e-14, epsrel=1e-12,
    )
    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    if err > 1e-10 * radial:
        raise ValidationError("mollifier normalization quadrature did not converge")
    return 1.0 / (surface * radial)


@dataclass(frozen=True)
class Mollifier:
    """Compactly supported smooth bump on the unit ball of R^dim, unit mass.

    ``eval(z, eps)`` evaluates the rescaled family eps^(-dim) * rho(z/eps),
    which keeps unit mass for every eps and support radius eps.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("mollifier dimension must be >= 1")

    @property
    def normalization(self):
        return _bump_normalization(self.dim)

    def profile(self, z):
        """Unit-scale bump rho(z); z has shape (..., dim)."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dim:
            raise ValidationError(f"points must have last axis {self.dim}")
        r2 = np.sum(z * z, axis=-1)
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = self.normalization * np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    def eval(self, z, eps):
        if eps <= 0:
            raise ValidationError(f"mollifier scale must be positive, got {eps}")
        z = np.asarray(z, dtype=float)
        return self.profile(z / eps) / eps**self.dim


# ---------------------------------------------------------------------------
# spectral multipliers


def _resolve_axes(f, axes):
    """Accept 'x' / 'v' / 'xv' or an explicit tuple of grid-axis indices."""
    if isinstance(axes, str):
        if axes == "xv":
            out = tuple(range(f.num_grid_axes))
        else:
            out = f.axes_of_kind(axes)
    else:
        out = tuple(int(a) for a in axes)
        for a in out:
            if not 0 <= a < f.num_grid_axes:
                raise ValidationError(f"axis index {a} out of range")
    if len(out) == 0:
        raise ValidationError("operator needs a nonempty axis set")
    return out


def _apply_multiplier(f, axes, mult_of_k2):
    """Apply a radial Fourier multiplier m(|k|^2) over the selected grid axes."""
    ks = f.mode_vectors()
    k2 = np.zeros((f.points_per_axis,) * f.num_grid_axes)
    for a in axes:
        k2 = k2 + ks[a] ** 2
    grid_axes = tuple(range(f.num_grid_axes))
    return f.with_values(fourier_multiply(f.values, mult_of_k2(k2), grid_axes))


def spectral_derivative(f, axis):
    """First partial derivative along one grid axis via i k."""
    if not 0 <= axis < f.num_grid_axes:
        raise ValidationError(f"axis {axis} out of range")
    mult = 1j * f.mode_vectors()[axis]
    grid_axes = tuple(range(f.num_grid_axes))
    return f.with_values(fourier_multiply(f.values, mult, grid_axes))


def spectral_gradient(f, axes="xv"):
    """Stack of partial derivatives along the selected axes (new last axis)."""
    axes = _resolve_axes(f, axes)
    parts = [spectral_derivative(f, a).values for a in axes]
    return f.with_values(np.stack(parts, axis=-1))


def bessel_norm(f, alpha, beta, p):
    """Anisotropic regularity norm ||(I-Dx)^(a/2) f||_p + ||(I-Dv)^(b/2) f||_p.

    The position part applies the multiplier (1+|k_x|^2)^(alpha/2), the
    velocity part (1+|k_v|^2)^(beta/2); each term is then measured in the
    grid L^p norm.  A grid with no axis of one kind contributes the plain
    ||f||_p for that term (the multiplier degenerates to 1).
    """
    if alpha < 0 or beta < 0:
        raise ValidationError("regularity orders must be nonnegative")
    if p <= 1:
        raise ValidationError(f"bessel_norm requires p > 1, got {p}")
    total = 0.0
    for order, kind in ((alpha, "x"), (beta, "v")):
        axes = f.axes_of_kind(kind)
        if len(axes) == 0 or order == 0.0:
            total += lp_norm(f, p)
            continue
        g = _apply_multiplier(f, axes, lambda k2, o=order: (1.0 + k2) ** (o / 2.0))
        total += lp_norm(g, p)
    return total


# ---------------------------------------------------------------------------
# grid L^p norms


def _magnitude(f):
    vals = f.values
    if f.is_scalar:
        return np.abs(vals)
    comp_axes = tuple(range(f.num_grid_axes, vals.ndim))
    return np.sqrt(np.sum(vals * vals, axis=comp_axes))


def lp_norm(f, p):
    """Grid-quadrature L^p norm (cell volume weighted); p > 0 required."""
    if p <= 0:
        raise ValidationError(f"lp_norm requires p > 0, got {p}")
    mag = _magnitude(f)
    return float((np.sum(mag**p) * f.cell_volume) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Hardy-Littlewood maximal function


def _torus_distance_sq(n, k, spacing):
    """Squared torus distance of every offset in a k-axis periodic grid."""
    idx = np.arange(n)
    wrapped = np.minimum(idx, n - idx) * spacing
    d2 = np.zeros((n,) * k)
    for a in range(k):
        shape = [1] * k
        shape[a] = n
        d2 = d2 + (wrapped**2).reshape(shape)
    return d2


def maximal_function(f):
    """Centered ball-average maximal function of |f| on the periodic grid.

    Ball averages are taken over a dyadic radius ladder r = spacing * 2^j up
    to the box half-width, each average computed as an FFT convolution with
    the normalized discrete ball indicator; the pointwise |f| (singleton
    ball) seeds the maximum, so M f >= |f| everywhere by construction.
    """
    if not f.is_scalar:
        raise ValidationError("maximal_function expects a scalar GridFunction")
    n = f.points_per_axis
    k = f.num_grid_axes
    mag = np.abs(f.values)
    d2 = _torus_distance_sq(n, k, f.spacing)
    spec = np.fft.fftn(mag)
    out = mag.copy()
    r = f.spacing
    while r <= f.box_half_width:
        ball = (d2 <= r * r * (1.0 + 1e-12)).astype(float)
        ball /= ball.sum()
        avg = np.fft.ifftn(spec * np.fft.fftn(ball)).real
        np.maximum(out, avg, out=out)
        r *= 2.0
    return f.with_values(out)


@dataclass
class LipschitzReport:
    fitted_constant: float
    num_pairs: int


# sample points lipschitz_via_maximal_check scans exhaustively; larger grids
# are strided down to about this many
LIPSCHITZ_MAX_POINTS = 1024


def lipschitz_via_maximal_check(f):
    """Check |f(a)-f(b)| <= C |a-b| (Mg(a) + Mg(b)) with g = |grad f|.

    Scans grid-point pairs (exhaustively up to LIPSCHITZ_MAX_POINTS sample
    points, strided beyond) and returns the smallest constant that works on
    the scanned pairs.  Pairs with zero right-hand side and zero increment
    are skipped; a zero right-hand side with a nonzero increment yields an
    infinite fitted constant.
    """
    if not f.is_scalar:
        raise ValidationError("lipschitz check expects a scalar GridFunction")
    grad = spectral_gradient(f, tuple(range(f.num_grid_axes)))
    gmag = f.with_values(_magnitude(grad))
    m = maximal_function(gmag).values

    k = f.num_grid_axes
    n = f.points_per_axis
    total = n**k
    stride = max(1, int(np.ceil((total / LIPSCHITZ_MAX_POINTS) ** (1.0 / k))))
    sl = (slice(None, None, stride),) * k
    sub_vals = f.values[sl].reshape(-1)
    sub_m = m[sl].reshape(-1)
    axes = f.axis_coordinates()[::stride]
    mesh = np.meshgrid(*([axes] * k), indexing="ij")
    pts = np.stack([c.reshape(-1) for c in mesh], axis=-1)

    diff = np.abs(sub_vals[:, None] - sub_vals[None, :])
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    rhs = dist * (sub_m[:, None] + sub_m[None, :])
    iu = np.triu_indices(len(sub_vals), k=1)
    diff, rhs = diff[iu], rhs[iu]

    live = rhs > 0.0
    ratios = diff[live] / rhs[live]
    fitted = float(np.max(ratios)) if ratios.size else 0.0
    if np.any(~live & (diff > 0.0)):
        fitted = math.inf
    return LipschitzReport(fitted, int(diff.size))

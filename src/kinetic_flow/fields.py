"""Drift/diffusion field library and mollification.

A CoefficientField bundles the drift b(t, z) (values in R^d) and diffusion
sigma(t, z) (values in R^{d x d}) of the kinetic system on phase space
R^{2d}.  Library fields come from one table, name -> default support
radius, drift profile, the |z| its plateau cut reads, the phase axes the
profile reads inside the plateau, and sigma profile: they are
time-independent, vanish (drift) outside a support ball, and keep sigma's
singular values inside [1/K, K].  Each library field carries its Plateau:
those axes, the cut radii r_in < r_out, and the profile with the cut fixed
at 1.0.

Rough fields are consumed through MollifiedField, the CoefficientField
whose coefficients are a fixed quadrature of the base field's convolution
with the compact smooth bump at scale 1/n: a bump-weighted sum of shifted
copies over the tensor Gauss-Legendre nodes inside the unit ball (144 of
the 16^2 at d = 1).  A finite sum of shifted copies keeps the roughness of
the field: the 2/3-Hoelder cusp of hoelder-drift survives in b_n, split
into copies at the distinct node offsets, so b_n is not the smooth
b * rho_n of the paper but a rough drift of the same family at every level.

A library field's mollified drift is evaluated in three regions, each
bit for bit equal to the full quadrature: the plateau, where the uncut
profile is evaluated once per distinct node projection and gathered back
to node order; the band, through the full quadrature; and outside the
support, where it is +0.0, the value numpy's ``np.sum(vals * w, axis=1)``
gives for a sum of signed zeros, -0.0 terms included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .spaces import Mollifier

__all__ = [
    "CoefficientField",
    "MollifiedField",
    "library_field",
    "mollified",
    "smooth_plateau",
    "LIBRARY",
]

def _smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1.  Shape-preserving,
    scalar input included; ``exp`` runs only inside the band 0 < t < 1."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    lo = np.exp(-1.0 / tb)
    hi = np.exp(-1.0 / (1.0 - tb))
    out[band] = lo / (lo + hi)
    return out


def smooth_plateau(r, r_inner, r_outer):
    """1 on [0, r_inner], smooth monotone drop to 0 at r_outer."""
    if not 0.0 < r_inner < r_outer:
        raise ValidationError("need 0 < r_inner < r_outer")
    return 1.0 - _smooth_step((np.asarray(r, float) - r_inner) / (r_outer - r_inner))


@dataclass(frozen=True)
class Plateau:
    """Where a library drift profile is cut.

    For |z| <= r_in the plateau cut is exactly 1.0: there the drift equals
    ``drift(z)``, the profile with the cut fixed at 1.0, which reads only
    the phase axes ``axes``.  For |z| >= r_out the drift is a signed zero.
    """

    axes: tuple
    r_in: float
    r_out: float
    drift: callable


@dataclass
class CoefficientField:
    """Drift and diffusion of one kinetic system.

    drift : callable (t, z) -> array (..., d) for z of shape (..., 2d)
    sigma : callable (t, z) -> array (..., d, d)
    constant_sigma : the (d, d) matrix when sigma does not depend on (t, z),
        else None.  Constant-sigma fields unlock the closed-form kernel.
    plateau : where the drift is a library profile with its cut exactly 1
        or exactly 0, else None (custom fields).
    """

    dim: int
    drift: callable
    sigma: callable
    support_radius: float
    name: str = "custom"
    constant_sigma: np.ndarray | None = None
    plateau: Plateau | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dimension must be >= 1")
        if not 0 < self.support_radius < np.inf:
            raise ValidationError("support radius must be positive and finite")
        if self.constant_sigma is not None:
            self.constant_sigma = np.asarray(self.constant_sigma, dtype=float)

    @property
    def phase_dim(self):
        return 2 * self.dim

    def generator_a(self, t=0.0, z=None):
        """Second-order coefficient a = sigma sigma^T / 2."""
        if z is None:
            if self.constant_sigma is None:
                raise ValidationError(
                    "generator_a without a state needs a constant-sigma field"
                )
            s = self.constant_sigma
            return 0.5 * s @ s.T
        s = self.sigma(t, z)
        return 0.5 * np.einsum("...ij,...kj->...ik", s, s)


def _check_state(z, dim):
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != 2 * dim:
        raise ValidationError(f"state must have last axis {2 * dim}")
    return z


# ---------------------------------------------------------------------------
# library


def _einsum_norm(z):
    return np.sqrt(np.einsum("...i,...i->...", z, z))


def _linalg_norm(z):
    return np.linalg.norm(z, axis=-1)


# A drift profile takes (z, d, kappa, cut): ``cut`` is the plateau cut of
# shape (..., 1), or the scalar 1.0 inside the plateau, where the cut is
# exactly 1 and multiplying by 1.0 changes no bit.


def _free_drift(z, d, kappa, cut):
    return np.zeros(z.shape[:-1] + (d,))


def _smooth_b_drift(z, d, kappa, cut):
    # smooth rotation-plus-damping profile, compactly supported
    return kappa * cut * (np.sin(z[..., :d]) - z[..., d:])


def _damping_drift(z, d, kappa, cut):
    return -kappa * cut * z[..., d:]


def _hoelder_drift(z, d, kappa, cut):
    x1 = z[..., :1]
    out = np.zeros(z.shape[:-1] + (d,))
    out[..., :1] = kappa * np.sign(x1) * np.cbrt(x1 * x1) * cut
    return out


def _anisotropic_sigma(z, d, r_in, r_out):
    # scalar modulation of the identity, eigenvalues sweeping the full
    # [1/2, 2] band inside the plateau
    r2 = np.sum(z * z, axis=-1)
    cut = smooth_plateau(np.sqrt(r2), r_in, r_out)
    scalar = 1.25 + 0.75 * np.cos(np.pi * r2) * cut
    return scalar[..., None, None] * np.eye(d)


# name -> (default support radius, drift profile, the |z| its plateau cut
# reads or None for an uncut profile, the phase axes the profile reads
# inside the plateau, sigma profile or None for the constant identity).
# The drift is cut off by a smooth plateau from half the support radius
# out to it; langevin and anisotropic-sigma share a profile but take |z|
# through different roots, which round differently.
_LIBRARY = {
    "free": (1.0, _free_drift, None, (), None),
    "constant-sigma-smooth-b": (4.0, _smooth_b_drift, _einsum_norm, ("x", "v"), None),
    "langevin": (64.0, _damping_drift, _einsum_norm, ("v",), None),
    "hoelder-drift": (4.0, _hoelder_drift, _einsum_norm, ("x1",), None),
    "anisotropic-sigma": (4.0, _damping_drift, _linalg_norm, ("v",), _anisotropic_sigma),
}
LIBRARY = tuple(_LIBRARY)


def _phase_axes(groups, d):
    """Phase-space axes of the named groups: x1, the x block, the v block."""
    span = {"x1": range(1), "x": range(d), "v": range(d, 2 * d)}
    return tuple(i for g in groups for i in span[g])


def library_field(name, dim, **params):
    """Construct one of the built-in fields.

    Params: ``kappa`` (drift amplitude, default 1) and ``support_radius``.
    Unknown names list the library in the error.
    """
    if name not in _LIBRARY:
        raise ValidationError(f"unknown field {name!r}; library: {', '.join(LIBRARY)}")
    radius, drift_profile, cut_norm, axes, sigma_profile = _LIBRARY[name]
    kappa = float(params.pop("kappa", 1.0))
    radius = float(params.pop("support_radius", radius))
    if params:
        raise ValidationError(f"unknown field parameters: {sorted(params)}")
    if not np.isfinite(kappa):
        raise ValidationError(f"kappa must be finite, got {kappa}")
    r_in, r_out = 0.5 * radius, radius
    eye = np.eye(dim) if sigma_profile is None else None

    def uncut_drift(z):
        return drift_profile(z, dim, kappa, 1.0)

    def drift(t, z):
        z = _check_state(z, dim)
        if cut_norm is None:
            return uncut_drift(z)
        cut = smooth_plateau(cut_norm(z), r_in, r_out)
        return drift_profile(z, dim, kappa, cut[..., None])

    def sigma(t, z):
        if eye is not None:
            return np.broadcast_to(eye, np.shape(z)[:-1] + eye.shape).copy()
        return sigma_profile(_check_state(z, dim), dim, r_in, r_out)

    plateau = Plateau(_phase_axes(axes, dim), r_in, r_out, uncut_drift)
    return CoefficientField(dim, drift, sigma, radius, name, eye, plateau)


# ---------------------------------------------------------------------------
# mollification


@lru_cache(maxsize=None)
def _mollifier_rule(phase_dim, order=16):
    """Tensor Gauss-Legendre nodes/weights on the unit ball, rho-weighted.

    Weights are renormalized by the rule's own mass of rho so that
    convolving a constant reproduces it to machine precision.
    """
    rho = Mollifier(phase_dim)
    pts, wts = np.polynomial.legendre.leggauss(order)
    grids = np.meshgrid(*([pts] * phase_dim), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*([wts] * phase_dim), indexing="ij")
    tensor_w = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=-1), axis=-1)
    dens = rho.profile(nodes)
    keep = dens > 0.0
    nodes, weights = nodes[keep], tensor_w[keep] * dens[keep]
    weights = weights / weights.sum()
    return nodes, weights


# bytes of shifted quadrature nodes per MollifiedField convolution chunk;
# bounds the temporaries of one evaluation whatever the batch size, and
# every state's sum reads the same node values in the same order; at
# 1 << 17 a d = 1 chunk (56 states x 144 nodes x 2 doubles, 126 KiB) stays
# under glibc's default 128 KiB mmap threshold, so its temporaries reuse
# heap memory instead of faulting in fresh pages on every chunk
CONVOLVE_CHUNK_BYTES = 1 << 17

# relative slack of MollifiedField's region tests: a state counts as inside
# the plateau (outside the support) only if every node's computed
# |z - xi/n| stays below r_in (above r_out) whatever the rounding of the
# shift and the root, so each node's cut is exactly 1.0 (exactly 0.0)
REGION_MARGIN = 1e-9


class MollifiedField(CoefficientField):
    """Coefficients of ``base`` convolved with the bump at scale 1/n.

    The quadrature runs over the flattened batch in chunks of at most
    CONVOLVE_CHUNK_BYTES of shifted nodes, so temporary memory stays
    bounded however many states one call asks for.

    When ``base`` is a library field, the drift splits the finite states
    by |z| against the node reach max |xi_i|/n, with REGION_MARGIN to spare:

    * plateau, |z| + reach <= r_in: every node's cut is exactly 1.0, so the
      profile is evaluated uncut, once per distinct projection of the nodes
      onto the axes it reads (16 of the 144 nodes at d = 1 for
      hoelder-drift), gathered back to node order and summed as below;
    * outside the support, |z| - reach >= r_out: every node's cut is
      exactly 0.0 and the value is +0.0, which is what numpy's
      ``np.sum(vals * w, axis=1)`` returns when every term is a signed zero,
      -0.0 included (numpy 2.4);
    * the band between, and every non-finite state: the full quadrature,
      sum_i w_i b(z - xi_i/n) through ``base.drift``.

    The plateau sum adds the same node values in the same order as the
    full quadrature, and the outside value is what that sum returns, so the
    drift agrees bit for bit with the full quadrature everywhere.
    """

    def __init__(self, base, n):
        if n < 1:
            raise ValidationError("mollification level n must be >= 1")
        self.base, self.n = base, n
        self.dim = base.dim
        self.name = f"{base.name}~{n}"
        self.support_radius = base.support_radius + 1.0 / n
        self.constant_sigma = base.constant_sigma
        self.plateau = None
        nodes, self._weights = _mollifier_rule(self.phase_dim)
        self._offsets = nodes / n
        if base.plateau is not None:
            self._reach = float(_einsum_norm(self._offsets).max())
            _, first, self._gather = np.unique(
                self._offsets[:, list(base.plateau.axes)], axis=0,
                return_index=True, return_inverse=True)
            self._distinct = self._offsets[first]

    def _quadrature(self, fn, flat, offsets, value_ndim, gather=None):
        """sum_i w_i fn(z - offsets[gather[i]]) for every row z of ``flat``."""
        w = self._weights.reshape((-1,) + (1,) * value_ndim)
        out = np.empty((flat.shape[0],) + (self.dim,) * value_ndim)
        step = max(1, CONVOLVE_CHUNK_BYTES // self._offsets.nbytes)
        for lo in range(0, flat.shape[0], step):
            vals = fn(flat[lo:lo + step, None, :] - offsets)
            if gather is not None:
                # node order, C-contiguous, so the sum adds in the same order
                vals = np.take(vals, gather, axis=1)
            out[lo:lo + step] = np.sum(vals * w, axis=1)
        return out

    def _convolve(self, fn, t, z, value_ndim):
        z = _check_state(z, self.dim)
        flat = z.reshape(-1, z.shape[-1])
        out = self._quadrature(lambda s: fn(t, s), flat, self._offsets, value_ndim)
        return out.reshape(z.shape[:-1] + out.shape[1:])

    def drift(self, t, z):
        plateau = self.base.plateau
        if plateau is None:
            return self._convolve(self.base.drift, t, z, 1)
        z = _check_state(z, self.dim)
        flat = z.reshape(-1, z.shape[-1])
        r = _einsum_norm(flat)
        finite = np.isfinite(flat).all(axis=1)
        inside = finite & (
            (r + self._reach) * (1.0 + REGION_MARGIN) <= plateau.r_in)
        outside = finite & (
            r * (1.0 - REGION_MARGIN) - self._reach
            >= plateau.r_out * (1.0 + REGION_MARGIN))
        band = ~(inside | outside)
        out = np.zeros((flat.shape[0], self.dim))
        out[inside] = self._quadrature(plateau.drift, flat[inside],
                                       self._distinct, 1, self._gather)
        out[band] = self._quadrature(lambda s: self.base.drift(t, s),
                                     flat[band], self._offsets, 1)
        return out.reshape(z.shape[:-1] + (self.dim,))

    def sigma(self, t, z):
        if self.base.constant_sigma is not None:
            z = _check_state(z, self.dim)
            m = self.base.constant_sigma
            return np.broadcast_to(m, z.shape[:-1] + m.shape).copy()
        return self._convolve(self.base.sigma, t, z, 2)


def mollified(base, n):
    """Convenience constructor for MollifiedField."""
    return MollifiedField(base, int(n))

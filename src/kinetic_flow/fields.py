"""Drift/diffusion field library, mollification, and the ellipticity check.

A CoefficientField bundles the drift b(t, z) (values in R^d) and diffusion
sigma(t, z) (values in R^{d x d}) of the kinetic system on phase space
R^{2d}.  Library fields are time-independent, vanish (drift) outside a
support ball, and keep sigma's singular values inside [1/K, K].  Rough
fields are consumed through MollifiedField, which convolves both
coefficients with the compact smooth bump at scale 1/n via a fixed
Gauss-Legendre rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from scipy.stats import qmc

from .errors import ValidationError
from .spaces import Mollifier

__all__ = [
    "CoefficientField",
    "MollifiedField",
    "library_field",
    "mollified",
    "check_UE",
    "UEReport",
    "smooth_plateau",
    "LIBRARY",
]

LIBRARY = (
    "free",
    "constant-sigma-smooth-b",
    "langevin",
    "hoelder-drift",
    "anisotropic-sigma",
)


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


@dataclass
class CoefficientField:
    """Drift and diffusion of one kinetic system.

    drift : callable (t, z) -> array (..., d) for z of shape (..., 2d)
    sigma : callable (t, z) -> array (..., d, d)
    constant_sigma : the (d, d) matrix when sigma does not depend on (t, z),
        else None.  Constant-sigma fields unlock the closed-form kernel.
    """

    dim: int
    drift: callable
    sigma: callable
    support_radius: float
    name: str = "custom"
    params: dict = dc_field(default_factory=dict)
    constant_sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dimension must be >= 1")
        if self.support_radius <= 0:
            raise ValidationError("support radius must be positive")
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


def library_field(name, dim, **params):
    """Construct one of the built-in fields.

    Common params: ``kappa`` (drift amplitude, default 1) and
    ``support_radius``.  Unknown names list the library in the error.
    """
    if name not in LIBRARY:
        raise ValidationError(f"unknown field {name!r}; library: {', '.join(LIBRARY)}")
    kappa = float(params.pop("kappa", 1.0))
    eye = np.eye(dim)

    if name == "free":
        radius = float(params.pop("support_radius", 1.0))
        _reject_extra(params)

        def drift(t, z, _d=dim):
            z = _check_state(z, _d)
            return np.zeros(z.shape[:-1] + (_d,))

        return CoefficientField(dim, drift, _const_sigma_fn(eye), radius,
                                name, {"kappa": kappa}, eye)

    if name == "constant-sigma-smooth-b":
        radius = float(params.pop("support_radius", 4.0))
        _reject_extra(params)
        r_in, r_out = 0.5 * radius, radius

        def drift(t, z, _d=dim, _k=kappa, _ri=r_in, _ro=r_out):
            z = _check_state(z, _d)
            r = np.sqrt(np.einsum("...i,...i->...", z, z))
            cut = smooth_plateau(r, _ri, _ro)
            v = z[..., _d:]
            x = z[..., :_d]
            # smooth rotation-plus-damping profile, compactly supported
            return _k * cut[..., None] * (np.sin(x) - v)

        return CoefficientField(dim, drift, _const_sigma_fn(eye), radius,
                                name, {"kappa": kappa}, eye)

    if name == "langevin":
        radius = float(params.pop("support_radius", 64.0))
        _reject_extra(params)
        r_in, r_out = 0.5 * radius, radius

        def drift(t, z, _d=dim, _k=kappa, _ri=r_in, _ro=r_out):
            z = _check_state(z, _d)
            r = np.sqrt(np.einsum("...i,...i->...", z, z))
            cut = smooth_plateau(r, _ri, _ro)
            return -_k * cut[..., None] * z[..., _d:]

        return CoefficientField(dim, drift, _const_sigma_fn(eye), radius,
                                name, {"kappa": kappa}, eye)

    if name == "hoelder-drift":
        radius = float(params.pop("support_radius", 4.0))
        _reject_extra(params)
        r_in, r_out = 0.5 * radius, radius

        def drift(t, z, _d=dim, _k=kappa, _ri=r_in, _ro=r_out):
            z = _check_state(z, _d)
            r = np.sqrt(np.einsum("...i,...i->...", z, z))
            cut = smooth_plateau(r, _ri, _ro)
            x1 = z[..., 0]
            out = np.zeros(z.shape[:-1] + (_d,))
            out[..., 0] = _k * np.sign(x1) * np.cbrt(x1 * x1) * cut
            return out

        return CoefficientField(dim, drift, _const_sigma_fn(eye), radius,
                                name, {"kappa": kappa}, eye)

    # anisotropic-sigma: scalar modulation of the identity, eigenvalues
    # sweeping the full [1/2, 2] band inside the plateau
    radius = float(params.pop("support_radius", 4.0))
    _reject_extra(params)
    r_in, r_out = 0.5 * radius, radius

    def drift(t, z, _d=dim, _k=kappa, _ri=r_in, _ro=r_out):
        z = _check_state(z, _d)
        r = np.linalg.norm(z, axis=-1)
        cut = smooth_plateau(r, _ri, _ro)
        return -_k * cut[..., None] * z[..., _d:]

    def sigma(t, z, _d=dim, _ri=r_in, _ro=r_out):
        z = _check_state(z, _d)
        r2 = np.sum(z * z, axis=-1)
        cut = smooth_plateau(np.sqrt(r2), _ri, _ro)
        scalar = 1.25 + 0.75 * np.cos(np.pi * r2) * cut
        return scalar[..., None, None] * np.eye(_d)

    return CoefficientField(dim, drift, sigma, radius, name, {"kappa": kappa}, None)


def _reject_extra(params):
    if params:
        raise ValidationError(f"unknown field parameters: {sorted(params)}")


def _const_sigma_fn(mat):
    def sigma(t, z, _m=mat):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(_m, z.shape[:-1] + _m.shape).copy()
    return sigma


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
# every state's sum reads the same node values in the same order
CONVOLVE_CHUNK_BYTES = 1 << 18


@dataclass
class MollifiedField:
    """Coefficients of ``base`` convolved with the bump at scale 1/n.

    The convolution runs over the flattened batch in chunks of at most
    CONVOLVE_CHUNK_BYTES of shifted nodes, so temporary memory stays
    bounded however many states one call asks for.
    """

    base: CoefficientField
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("mollification level n must be >= 1")

    @property
    def dim(self):
        return self.base.dim

    @property
    def phase_dim(self):
        return self.base.phase_dim

    @property
    def name(self):
        return f"{self.base.name}~{self.n}"

    @property
    def support_radius(self):
        return self.base.support_radius + 1.0 / self.n

    @property
    def constant_sigma(self):
        return self.base.constant_sigma

    def _convolve(self, fn, t, z, value_ndim):
        z = _check_state(z, self.dim)
        nodes, weights = _mollifier_rule(self.phase_dim)
        offsets = nodes / self.n
        w = weights.reshape((-1,) + (1,) * value_ndim)
        flat = z.reshape(-1, z.shape[-1])
        out = np.empty((flat.shape[0],) + (self.dim,) * value_ndim)
        step = max(1, CONVOLVE_CHUNK_BYTES // offsets.nbytes)
        for lo in range(0, flat.shape[0], step):
            shifted = flat[lo:lo + step, None, :] - offsets
            out[lo:lo + step] = np.sum(fn(t, shifted) * w, axis=1)
        return out.reshape(z.shape[:-1] + out.shape[1:])

    def drift(self, t, z):
        return self._convolve(self.base.drift, t, z, 1)

    def sigma(self, t, z):
        if self.base.constant_sigma is not None:
            z = _check_state(z, self.dim)
            m = self.base.constant_sigma
            return np.broadcast_to(m, z.shape[:-1] + m.shape).copy()
        return self._convolve(self.base.sigma, t, z, 2)

    generator_a = CoefficientField.generator_a


def mollified(base, n):
    """Convenience constructor for MollifiedField."""
    return MollifiedField(base, int(n))


# ---------------------------------------------------------------------------
# uniform ellipticity


@dataclass
class UEReport:
    ok: bool
    constant: float
    min_singular_value: float
    max_singular_value: float
    num_samples: int


# quasi-random (t, z) points check_UE samples, t in [0, 1] and z in the
# support box
UE_SAMPLES = 512


def check_UE(field, K, slack=0.0):
    """Sample sigma's singular values at quasi-random (t, z) points.

    Passes iff every singular value lies in [1/K - slack, K + slack].
    """
    if K < 1.0:
        raise ValidationError(f"ellipticity constant must be >= 1, got {K}")
    eng = qmc.Sobol(d=2 * field.dim + 1, scramble=False)
    pts = eng.random(UE_SAMPLES)
    t = pts[:, 0]
    z = field.support_radius * (2.0 * pts[:, 1:] - 1.0)
    sig = np.stack([field.sigma(ti, zi) for ti, zi in zip(t, z)])
    svals = np.linalg.svd(sig, compute_uv=False)
    lo, hi = float(svals.min()), float(svals.max())
    ok = (lo >= 1.0 / K - slack - 1e-12) and (hi <= K + slack + 1e-12)
    return UEReport(ok, float(K), lo, hi, UE_SAMPLES)

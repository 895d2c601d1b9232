"""Function-space layer: mollifier, spectral calculus, norms, maximal function."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_flow import spaces
from kinetic_flow.errors import ValidationError
from kinetic_flow.grids import GridFunction
from kinetic_flow.spaces import (
    Mollifier,
    bessel_norm,
    lipschitz_via_maximal_check,
    lp_norm,
    maximal_function,
    spectral_derivative,
    spectral_gradient,
)


def band_limited(seed, n=64, k_max=6, box=4.0):
    """Random real field whose spectrum vanishes beyond |k| = k_max.

    Exactly band-limited, so FFT differentiation on the grid agrees with
    the continuum operator to rounding and the 1e-10 spectral identities
    below are meaningful.
    """
    rng = np.random.default_rng(seed)
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, kv = np.meshgrid(k, k, indexing="ij")
    spec = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mask = (np.abs(kx) <= k_max) & (np.abs(kv) <= k_max)
    spec = spec * mask * np.exp(-0.15 * (kx**2 + kv**2))
    vals = np.fft.ifft2(spec).real
    vals = vals * n / np.max(np.abs(vals))
    return GridFunction(vals, box, ("x", "v"))


# ---------------------------------------------------------------------------
# mollifier


@pytest.mark.parametrize("dim,n", [(1, 4001), (2, 401)])
@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_mollifier_unit_mass(dim, n, eps):
    # trapezoid quadrature converges superalgebraically on a compactly
    # supported smooth bump, so the 1e-8 mass budget is pure roundoff here
    m = Mollifier(dim)
    xs = np.linspace(-eps, eps, n)
    w = (xs[1] - xs[0]) ** dim
    if dim == 1:
        pts = xs[:, None]
    else:
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([X, Y], axis=-1)
    mass = float(np.sum(m.eval(pts, eps)) * w)
    assert abs(mass - 1.0) <= 1e-8


def test_mollifier_support_and_validation():
    m = Mollifier(1)
    pts = np.array([[1.0], [1.5], [-2.0]])
    assert np.all(m.eval(pts, 1.0) == 0.0)
    assert np.all(m.eval(pts / 2.0, 0.5) == 0.0)
    with pytest.raises(ValidationError):
        m.eval(pts, 0.0)
    with pytest.raises(ValidationError):
        Mollifier(0)


@given(st.floats(0.1, 3.0))
@settings(max_examples=20, deadline=None)
def test_mollifier_scaling_mass(eps):
    m = Mollifier(1)
    xs = np.linspace(-eps, eps, 2001)[:, None]
    mass = float(np.sum(m.eval(xs, eps)) * (xs[1, 0] - xs[0, 0]))
    assert abs(mass - 1.0) <= 1e-7


def test_mollifier_normalization_table_is_quads_own_result(monkeypatch,
                                                           serial):
    # phase dimensions 2 and 4 read a table that quad recomputes bit for
    # bit; any other dimension runs quad, with the bits it had before the
    # table
    from kinetic_flow import spaces

    assert sorted(spaces._NORMALIZATION_TABLE) == [2, 4]
    for dim in (2, 4):
        assert (spaces._NORMALIZATION_TABLE[dim].hex()
                == spaces._quad_normalization(dim).hex())
    quad_dims = []
    quad = spaces._quad_normalization

    def counted(dim):
        quad_dims.append(dim)
        return quad(dim)

    monkeypatch.setattr(spaces, "_quad_normalization", counted)
    bump = spaces._bump_normalization.__wrapped__
    assert bump(2).hex() == "0x1.12605d03ed1f9p+1"
    assert bump(4).hex() == "0x1.4e39970d09b82p+1"
    assert bump(1).hex() == "0x1.204ad466d96d0p+1"
    assert bump(3).hex() == "0x1.2230e19e6a7c1p+1"
    assert quad_dims == [1, 3]


# ---------------------------------------------------------------------------
# spectral identities


def test_spectral_derivative_exact_on_modes():
    n, box = 64, np.pi
    x = np.linspace(-box, box, n, endpoint=False)
    X, V = np.meshgrid(x, x, indexing="ij")
    f = GridFunction(np.sin(3 * X) * np.cos(2 * V), box, ("x", "v"))
    dx = spectral_derivative(f, 0)
    target = 3 * np.cos(3 * X) * np.cos(2 * V)
    assert np.abs(dx.values - target).max() <= 1e-10


# ---------------------------------------------------------------------------
# norms


def test_lp_norm_homogeneity_and_validation():
    f = band_limited(9, n=32)
    for p in (1.0, 2.0, 4.0):
        assert np.isclose(lp_norm(f.with_values(-2.5 * f.values), p),
                          2.5 * lp_norm(f, p), rtol=1e-12)
    with pytest.raises(ValidationError):
        lp_norm(f, 0.0)


def test_bessel_norm_zero_order_and_monotonicity():
    f = band_limited(13)
    base = bessel_norm(f, 0.0, 0.0, 2)
    assert np.isclose(base, 2 * lp_norm(f, 2), rtol=1e-12)
    orders = [bessel_norm(f, a, a, 2) for a in (0.0, 0.5, 1.0, 2.0)]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(orders, orders[1:]))
    with pytest.raises(ValidationError):
        bessel_norm(f, -1.0, 0.0, 2)
    with pytest.raises(ValidationError):
        bessel_norm(f, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# maximal function


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_maximal_dominates_pointwise(seed):
    f = band_limited(seed, n=32)
    mf = maximal_function(f)
    assert np.all(mf.values >= np.abs(f.values) - 1e-12)


def test_maximal_operator_norm_sane():
    # averages contract every L^p, so the ratio stays within a small factor
    # of 1; 1.75 is the frozen p=2 calibration ceiling of the battery
    for seed in (2, 17):
        f = band_limited(seed)
        mf = maximal_function(f)
        ratio = lp_norm(mf, 2) / lp_norm(f, 2)
        assert 1.0 <= ratio <= 1.75


def test_maximal_rejects_vector_fields():
    f = band_limited(3, n=32)
    with pytest.raises(ValidationError):
        maximal_function(spectral_gradient(f, "xv"))


def test_lipschitz_via_maximal():
    f = band_limited(23)
    report = lipschitz_via_maximal_check(f)
    assert 0.0 < report.fitted_constant <= 1.2


def test_lipschitz_via_maximal_dead_pair_fits_infinity(monkeypatch):
    # a pair with zero right-hand side and a nonzero increment admits no
    # finite constant
    f = band_limited(23, n=16)
    monkeypatch.setattr(spaces, "maximal_function",
                        lambda g: g.with_values(np.zeros_like(g.values)))
    assert lipschitz_via_maximal_check(f).fitted_constant == np.inf

"""Transition kernel of the free kinetic system: covariance, density,
sampling, and the grid semigroup."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_flow.errors import (
    AccuracyError,
    DegenerateKernelError,
    ValidationError,
)
from kinetic_flow import kernel
from kinetic_flow.flow import check_convergence_study
from kinetic_flow.grids import GridFunction, grid_axis
from kinetic_flow.integrator import BrownianGrid
from kinetic_flow.kernel import (
    MIN_TIME_GAP,
    KernelStep,
    anisotropic_smoothing_probe,
    apply_semigroup,
    diffusion_matrix,
    gradient_scaling_probe,
    kernel_covariance,
    kernel_density,
    kernel_sample,
)
from kinetic_flow.spaces import lp_norm
from kinetic_flow.zvonkin import SpaceTimeField, duhamel_resolvent


def analytic_blocks(a, h):
    """Independent derivation of the covariance over one gap."""
    return 2 * a * h**3 / 3.0, a * h**2, 2 * a * h


# ---------------------------------------------------------------------------
# covariance


def test_covariance_closed_form_unit_gap():
    cov = kernel_covariance(0.5, 0.0, 1.0)
    assert np.allclose(cov.c_xx, 1.0 / 3.0, rtol=1e-12)
    assert np.allclose(cov.c_xv, 0.5, rtol=1e-12)
    assert np.allclose(cov.c_vv, 1.0, rtol=1e-12)


@given(st.floats(0.05, 2.0), st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_covariance_h_scaling(h, a):
    cov = kernel_covariance(a, 0.0, h)
    xx, xv, vv = analytic_blocks(a, h)
    assert np.isclose(float(cov.c_xx[0, 0]), xx, rtol=1e-10)
    assert np.isclose(float(cov.c_xv[0, 0]), xv, rtol=1e-10)
    assert np.isclose(float(cov.c_vv[0, 0]), vv, rtol=1e-10)
    # full matrix is symmetric positive definite
    m = cov.matrix()
    assert np.allclose(m, m.T)
    assert np.linalg.eigvalsh(m).min() > 0


def test_covariance_degenerate_gap():
    # factorization floor: below it c_xx ~ h^3 underflows the conditioning
    # of the Cholesky factor
    with pytest.raises(DegenerateKernelError):
        kernel_covariance(0.5, 0.0, 0.999 * MIN_TIME_GAP)
    kernel_covariance(0.5, 0.0, 1.001 * MIN_TIME_GAP)   # just above: fine


def test_covariance_rejects_bad_diffusion():
    with pytest.raises(ValidationError):
        kernel_covariance(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0, 1.0)
    with pytest.raises(ValidationError):
        kernel_covariance(np.array([[-1.0]]), 0.0, 1.0)


def test_diffusion_matrix_scalar_and_shape():
    assert np.array_equal(diffusion_matrix(0.5), [[0.5]])
    assert np.array_equal(diffusion_matrix(0.5, 2), 0.5 * np.eye(2))
    for bad, dim in (([[1.0, 0.0]], None), (np.eye(2), 3), ([[np.inf]], 1)):
        with pytest.raises(ValidationError):
            diffusion_matrix(bad, dim)


# ---------------------------------------------------------------------------
# density and sampling


def test_density_normalization_and_positivity():
    z0 = np.array([0.3, -0.2])
    n, L = 96, 8.0
    ax = np.linspace(-L, L, n, endpoint=False)
    X, V = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([X, V], axis=-1)
    dens = kernel_density(z0, pts, 0.0, 1.0, 0.5)
    assert np.all(dens >= 0.0)
    mass = float(dens.sum() * (2 * L / n) ** 2)
    assert abs(mass - 1.0) <= 1e-6


def test_sample_moments_match_kernel():
    rng = np.random.default_rng(19)
    n = 20_000
    z0 = np.array([0.4, -1.0])
    h = 0.7
    draws = kernel_sample(z0, 0.0, h, 0.5, rng, n)
    xx, xv, vv = analytic_blocks(0.5, h)
    mean = np.array([z0[0] + h * z0[1], z0[1]])
    assert np.allclose(draws.mean(axis=0), mean, atol=4 * np.sqrt(max(xx, vv) / n))
    emp = np.cov(draws.T, ddof=1)
    th = np.array([[xx, xv], [xv, vv]])
    se = np.sqrt((np.outer(np.diag(th), np.diag(th)) + th**2) / n)
    assert np.abs((emp - th) / se).max() <= 4.0


def test_sample_density_consistency():
    # chi-squared over a 5x5 partition of the bulk; expected cell masses
    # come from exact Gaussian rectangle probabilities, independent of the
    # sampler under test
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(4)
    n = 50_000
    draws = kernel_sample(np.zeros(2), 0.0, 1.0, 0.5, rng, n)
    xx, xv, vv = analytic_blocks(0.5, 1.0)
    mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[xx, xv], [xv, vv]])
    ex = np.array([-30.0, -0.6, -0.2, 0.2, 0.6, 30.0])
    ev = np.array([-30.0, -1.0, -0.3, 0.3, 1.0, 30.0])
    cdf = np.array([[mvn.cdf([x, v]) for v in ev] for x in ex])
    prob = cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]
    counts, _, _ = np.histogram2d(
        draws[:, 0], draws[:, 1],
        bins=(np.array([-np.inf, -0.6, -0.2, 0.2, 0.6, np.inf]),
              np.array([-np.inf, -1.0, -0.3, 0.3, 1.0, np.inf])))
    chi2 = float(np.sum((counts - n * prob) ** 2 / (n * prob)))
    # 24 dof; 42.98 is the 0.99 quantile
    assert chi2 <= 42.98


# ---------------------------------------------------------------------------
# grid semigroup


def gaussian_bump(n=128, box=14.0):
    def fn(X, V):
        return 1.7 * np.exp(-((X - 0.4) ** 2 / 0.8 + (V + 0.3) ** 2 / 1.1))
    return GridFunction.from_callable(fn, box, n, ("x", "v"))


def test_semigroup_mass_preservation_and_positivity():
    f = gaussian_bump()
    g = apply_semigroup(f, 0.0, 1.0, 0.5)
    assert abs(lp_norm(g, 1) - lp_norm(f, 1)) <= 1e-8 * lp_norm(f, 1)
    assert g.values.min() >= -1e-10 * np.abs(g.values).max()


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_semigroup_lp_contraction(p):
    f = gaussian_bump()
    g = apply_semigroup(f, 0.0, 1.0, 0.5)
    assert lp_norm(g, p) <= lp_norm(f, p) + 1e-8


def test_chapman_kolmogorov():
    f = gaussian_bump()
    direct = apply_semigroup(f, 0.0, 1.0, 0.5)
    half = apply_semigroup(apply_semigroup(f, 0.0, 0.5, 0.5), 0.5, 1.0, 0.5)
    gap = np.abs(direct.values - half.values).max()
    assert gap <= 1e-6


def test_semigroup_backend_agreement():
    f = gaussian_bump()
    s = apply_semigroup(f, 0.0, 1.0, 0.5, method="spectral")
    h = apply_semigroup(f, 0.0, 1.0, 0.5, method="hermite")
    assert np.abs(s.values - h.values).max() <= 1e-5


def test_semigroup_pinned_values():
    # bit-for-bit values of both backends; a rewrite of the kernel step
    # that reorders the arithmetic shows up here first
    f = gaussian_bump()
    pinned = {
        "spectral": (0.662967457029689, 0.01807530475069837,
                     104.69935513049641, 44.329627497154945),
        "hermite": (0.6629674570296895, 0.018075304750698365,
                    104.69935513049643, 44.329627497154995),
    }
    for method, expected in pinned.items():
        g = apply_semigroup(f, 0.0, 1.0, 0.5, method=method).values
        got = (float(g[64, 64]), float(g[70, 50]), float(g.sum()),
               float((g * g).sum()))
        assert got == expected, (method, got)


def test_semigroup_d2_closed_form_gaussian():
    # P_{0,h} of a Gaussian is Gaussian: with f = exp(-(z-c)^T S^-1 (z-c)/2)
    # and m = (x + h v, v) - c,
    #   P f(z) = sqrt(det S / det(S+C)) exp(-m^T (S+C)^-1 m / 2)
    a = np.array([[0.5, 0.1], [0.1, 0.3]])
    h = 0.5
    c = np.array([0.3, -0.2, 0.1, 0.2])
    S = np.diag([0.4, 0.5, 0.4, 0.3])

    def gauss(d, cov):
        return np.exp(-0.5 * np.einsum("...i,ij,...j->...", d,
                                       np.linalg.inv(cov), d))

    f = GridFunction.from_callable(lambda *z: gauss(np.stack(z, -1) - c, S),
                                   7.0, 32, ("x", "x", "v", "v"))
    out = apply_semigroup(f, 0.0, h, a)
    C = kernel_covariance(a, 0.0, h).matrix()
    z = np.stack(f.mesh(), -1)
    m = np.concatenate([z[..., :2] + h * z[..., 2:], z[..., 2:]], -1) - c
    exact = np.sqrt(np.linalg.det(S) / np.linalg.det(S + C)) * gauss(m, S + C)
    assert np.abs(out.values - exact).max() <= 1e-3


def test_kernel_step_reuse_matches_apply_semigroup():
    f = gaussian_bump(n=64)
    step = KernelStep(f, 0.5, 0.25)
    once = step(f.values)
    assert np.array_equal(once, apply_semigroup(f, 0.0, 0.25, 0.5).values)
    twice = apply_semigroup(f.with_values(once), 0.25, 0.5, 0.5).values
    assert np.array_equal(step(once), twice)
    with pytest.raises(ValidationError):
        KernelStep(f, np.eye(2), 0.25)


def two_stage_step(grid, a, gap, method, values):
    """Reference step: guard, complex fftn blur over all grid axes, real
    part, complex fft shear over the x axes, real part."""
    KernelStep(grid, a, gap, method).guard(values)
    cov, ks = kernel_covariance(a, 0.0, gap), grid.mode_vectors()
    d = grid.num_grid_axes // 2
    blur = (kernel._blur_multiplier_spectral(ks, cov) if method == "spectral"
            else kernel._blur_multiplier_hermite(ks, cov, kernel.HERMITE_ORDER))
    v, shear = grid.axis_coordinates(), 1.0
    for j in range(d):
        shear = shear * np.exp(1j * ks[j] * (gap * v.reshape(ks[d + j].shape)))
    ext = (Ellipsis,) + (None,) * (values.ndim - 2 * d)
    grid_axes, x_axes = tuple(range(2 * d)), tuple(range(d))
    blurred = np.fft.ifftn(np.fft.fftn(values, axes=grid_axes) * blur[ext],
                           axes=grid_axes).real
    return np.fft.ifftn(np.fft.fftn(blurred, axes=x_axes) * shear[ext],
                        axes=x_axes).real


def cusp_field(d, n):
    """|x_1 - 0.1|^(2/3) times a Gaussian, d components: the cusp puts
    content on the Nyquist planes."""
    def fn(*z):
        r2 = sum(c * c for c in z)
        cusp = np.abs(z[0] - 0.1) ** (2.0 / 3.0) * np.exp(-r2)
        return np.stack([cusp * np.cos(c) for c in range(d)], axis=-1)
    return GridFunction.from_callable(fn, 6.0, n, ("x",) * d + ("v",) * d)


@pytest.mark.parametrize("d,n", [(1, 64), (1, 65), (2, 12), (2, 13)])
@pytest.mark.parametrize("method", ["spectral", "hermite"])
def test_kernel_step_matches_two_stage_step(d, n, method):
    # the mixed-layout step with Hermitian multipliers is the two-stage
    # step up to rounding, Nyquist planes included
    a = 0.5 if d == 1 else np.array([[0.5, 0.1], [0.1, 0.3]])
    f = cusp_field(d, n)
    got = KernelStep(f, a, 0.1, method)(f.values)
    want = two_stage_step(f, a, 0.1, method, f.values)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(f.values).max()


def test_duhamel_recursion_matches_two_stage_recursion(seam_guard_off):
    # the resolvent carries its recursion in the mixed layout and guards
    # the carried slices after it; the sum is the two-stage recursion's.
    # The cusp rings on this coarse grid, so the guard is relaxed
    f = cusp_field(1, 32)
    times = np.linspace(0.0, 0.5, 9)
    g = f.values[None] * np.linspace(1.0, 0.4, times.size)[:, None, None, None]
    h, decay = times[1], np.exp(-2.0 * times[1])
    want = np.zeros_like(g)
    for i in range(times.size - 2, -1, -1):
        carried = want[i + 1] + 0.5 * h * g[i + 1]
        step = two_stage_step(f, 0.5, h, "spectral", carried)
        want[i] = decay * step + 0.5 * h * g[i]
    u = duhamel_resolvent(SpaceTimeField(times, g, 6.0, 0.5), 2.0)
    assert np.abs(u.values - want).max() <= 1e-12 * np.abs(want).max()


NAN, INF = float("nan"), float("inf")


def _zero_slices(box=6.0, lam=0.0):
    return SpaceTimeField(np.linspace(0.0, 1.0, 3), np.zeros((3, 4, 4, 1)),
                          box, 0.5, lam)


@pytest.mark.parametrize("make", [
    lambda f: apply_semigroup(f, 0.0, NAN, 0.5),
    lambda f: apply_semigroup(f, NAN, 1.0, 0.5),
    lambda f: apply_semigroup(f, 0.0, INF, 0.5),
    lambda f: kernel_covariance(0.5, 0.0, NAN),
    lambda f: kernel_covariance(0.5, 0.0, INF),
    lambda f: apply_semigroup(f, 0.5, 0.5, -1.0),
    lambda f: apply_semigroup(f, 0.5, 0.5, np.eye(3)),
    lambda f: apply_semigroup(GridFunction(f.values, f.box_half_width,
                                           ("v", "x")), 0.5, 0.5, 0.5),
    lambda f: grid_axis(NAN, 8),
    lambda f: grid_axis(INF, 8),
    lambda f: GridFunction(f.values, NAN, ("x", "v")),
    lambda f: GridFunction(f.values, INF, ("x", "v")),
    lambda f: _zero_slices(box=NAN),
    lambda f: _zero_slices(box=INF),
    lambda f: _zero_slices(lam=NAN),
    lambda f: BrownianGrid(0, NAN, 4, 1),
    lambda f: BrownianGrid(0, INF, 4, 1),
    lambda f: check_convergence_study(1, (2, 4, 8), 128, NAN),
    lambda f: check_convergence_study(1, (2, 4, 8), 128, INF),
], ids=[
    "semigroup-nan-gap", "semigroup-nan-start", "semigroup-inf-gap",
    "covariance-nan-gap", "covariance-inf-gap", "zero-gap-negative-a",
    "zero-gap-3x3-a", "zero-gap-v-before-x", "axis-nan-box",
    "axis-inf-box", "grid-nan-box", "grid-inf-box", "slices-nan-box",
    "slices-inf-box", "slices-nan-lam", "brownian-nan-dt",
    "brownian-inf-dt", "converge-nan-p", "converge-inf-p"])
def test_non_finite_or_mismatched_inputs_are_refused(make):
    # every sign check is written so NaN fails it, and a zero gap checks
    # the grid axes and the diffusion matrix before it copies
    with pytest.raises(ValidationError):
        make(gaussian_bump(n=16))


def test_semigroup_seam_guard():
    # mass parked against the periodic boundary must be rejected, not wrapped
    f = GridFunction.from_callable(
        lambda X, V: np.exp(-((X - 11.0) ** 2 + V**2)), 12.0, 128, ("x", "v"))
    with pytest.raises(AccuracyError):
        apply_semigroup(f, 0.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# probes


def test_gradient_probe_rejects_bad_ladder():
    with pytest.raises(ValidationError):
        gradient_scaling_probe(0.5, 1, 0,
                               np.array([1e-3, 1e-2, 5e-3, 1e-1, 2e-1]))
    with pytest.raises(ValidationError):
        gradient_scaling_probe(0.5, 1, 0, np.array([1e-3, 1e-2, 1e-1]))


def test_anisotropic_probe_order_bounds():
    for alpha in (-0.5, 0.0, 2.5):
        with pytest.raises(ValidationError):
            anisotropic_smoothing_probe(0.5, alpha,
                                        np.geomspace(1e-3, 1e-1, 5))

"""Path integrator: noise lattice, schemes, coupling, chunking, divergence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_flow.errors import DivergenceError, ValidationError
from kinetic_flow.fields import CoefficientField, library_field
from kinetic_flow.integrator import WORK_CHUNK, BrownianGrid, evolve


def zero_noise_field():
    """b = 0, sigma = 0: deterministic free flight under em."""
    zero_b = lambda t, z: np.zeros(np.asarray(z).shape[:-1] + (1,))
    zero_s = lambda t, z: np.zeros(np.asarray(z).shape[:-1] + (1, 1))
    return CoefficientField(1, zero_b, zero_s, 1.0, "flight", {},
                            np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# noise lattice


def test_brownian_grid_determinism():
    g = BrownianGrid(42, 0.01, 16, 1)
    a = g.increments(0, 8)
    b = BrownianGrid(42, 0.01, 16, 1).increments(0, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, BrownianGrid(43, 0.01, 16, 1).increments(0, 8))


def test_brownian_grid_path_blocks_are_stable():
    # stream i is a function of (master_seed, i) alone: growing the batch
    # never changes existing paths
    g = BrownianGrid(7, 0.02, 10, 1)
    assert np.array_equal(g.increments(0, 4), g.increments(0, 300)[:4])
    assert np.array_equal(g.increments(250, 260), g.increments(0, 300)[250:260])


def test_brownian_increment_moments():
    g = BrownianGrid(3, 0.25, 64, 1)
    inc = g.increments(0, 2000)
    z = inc.mean() / (np.sqrt(0.25) / np.sqrt(inc.size))
    assert abs(z) <= 4.0
    assert abs(inc.var() / 0.25 - 1.0) <= 4.0 * np.sqrt(2.0 / inc.size)


@given(st.sampled_from([1, 2, 4, 8, 16]), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_coarsened_increments_sum_exactly(factor, seed):
    g = BrownianGrid(seed, 1.0 / 64, 64, 1)
    coarse = g.coarsened(factor)
    fine = g.increments(0, 3)
    summed = fine.reshape(3, 64 // factor, factor, 1).sum(axis=2)
    assert np.array_equal(coarse.increments(0, 3), summed)
    assert np.isclose(coarse.horizon, g.horizon)


def test_coarsened_grid_refuses_exact_scheme_noise():
    g = BrownianGrid(0, 1.0 / 64, 64, 1)
    with pytest.raises(ValidationError):
        g.coarsened(4).normals(0, 1)
    with pytest.raises(ValidationError):
        g.coarsened(5)


def test_brownian_grid_validation():
    with pytest.raises(ValidationError):
        BrownianGrid(0, 0.0, 10, 1)
    with pytest.raises(ValidationError):
        BrownianGrid(0, 0.1, 0, 1)
    with pytest.raises(ValidationError):
        BrownianGrid(0, 0.1, 10, 1).increments(3, 3)


# ---------------------------------------------------------------------------
# schemes


def test_em_kinematic_identity():
    # position update is literally x + v dt, whatever the drift does
    field = library_field("hoelder-drift", 1)
    g = BrownianGrid(5, 1.0 / 64, 64, 1)
    traj = evolve(field, np.tile([0.3, -0.2], (20, 1)), g, scheme="em")
    resid = (traj.states[:, 1:, 0] - traj.states[:, :-1, 0]
             - traj.states[:, :-1, 1] / 64.0)
    assert np.abs(resid).max() <= 1e-14


def test_free_flight_exact():
    field = zero_noise_field()
    g = BrownianGrid(1, 1.0 / 128, 128, 1)
    z0 = np.array([[0.5, -0.3], [-1.0, 2.0]])
    traj = evolve(field, z0, g, scheme="em")
    for t_idx, t in enumerate(traj.times):
        assert np.allclose(traj.states[:, t_idx, 0], z0[:, 0] + t * z0[:, 1],
                           atol=1e-12)
        assert np.array_equal(traj.states[:, t_idx, 1], z0[:, 1])


def test_kinetic_exact_one_step_covariance():
    # a single unit-gap step must reproduce the kernel covariance
    field = library_field("free", 1)
    traj = evolve(field, np.zeros((20_000, 2)), BrownianGrid(13, 1.0, 1, 1),
                  scheme="kinetic-exact")
    emp = np.cov(traj.final().T, ddof=1)
    th = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    se = np.sqrt((np.outer(np.diag(th), np.diag(th)) + th**2) / 20_000)
    assert np.abs((emp - th) / se).max() <= 3.0


@pytest.mark.parametrize("scheme", ["em", "kinetic-exact"])
def test_ou_velocity_closed_form(scheme):
    # inside its plateau the langevin field is dV = -V dt + dW
    field = library_field("langevin", 1, kappa=1.0)
    n = 4000
    traj = evolve(field, np.tile([0.0, 1.0], (n, 1)),
                  BrownianGrid(91, 1.0 / 512, 512, 1), scheme=scheme)
    vT = traj.final()[:, 1]
    mean_th = np.exp(-1.0)
    var_th = (1.0 - np.exp(-2.0)) / 2.0
    z_mean = (vT.mean() - mean_th) / (vT.std(ddof=1) / np.sqrt(n))
    z_var = (vT.var(ddof=1) - var_th) / (var_th * np.sqrt(2.0 / (n - 1)))
    assert abs(z_mean) <= 3.5
    assert abs(z_var) <= 3.5


def test_evolve_rejects_unknown_scheme_and_bad_state():
    field = library_field("free", 1)
    g = BrownianGrid(0, 0.1, 4, 1)
    with pytest.raises(ValidationError):
        evolve(field, np.zeros(2), g, scheme="milstein")
    with pytest.raises(ValidationError):
        evolve(field, np.zeros(3), g)


# ---------------------------------------------------------------------------
# coupling


def test_coupled_identical_inputs_bitwise():
    field = library_field("hoelder-drift", 1)
    g = BrownianGrid(11, 1.0 / 64, 64, 1)
    z0 = np.tile([0.2, 0.1], (30, 1))
    ta = evolve(field, z0, g, scheme="em")
    tb = evolve(field, z0, g, scheme="em")
    assert np.array_equal(ta.states, tb.states)


def test_coupled_free_difference_is_affine():
    # identical noise cancels: v-gap stays constant, x-gap affine in t
    field = library_field("free", 1)
    g = BrownianGrid(7, 1.0 / 256, 256, 1)
    ta = evolve(field, np.tile([0.0, 0.0], (50, 1)), g, scheme="em")
    tb = evolve(field, np.tile([1e-2, 2e-2], (50, 1)), g, scheme="em")
    dv = tb.states[..., 1] - ta.states[..., 1]
    dx = tb.states[..., 0] - ta.states[..., 0]
    assert np.abs(dv - 2e-2).max() <= 1e-12
    assert np.abs(dx - (1e-2 + 2e-2 * ta.times)).max() <= 1e-12


def test_coupled_pathwise_gronwall():
    # smooth Lipschitz drift: e^{Lambda T} delta bounds the separation
    # pathwise; drift Lipschitz constant <= 4 here, so Lambda = 5 covers
    # the kinematic coupling as well
    field = library_field("constant-sigma-smooth-b", 1)
    g = BrownianGrid(7, 1.0 / 256, 256, 1)
    delta = 1e-3
    z0 = np.tile([0.2, 0.1], (200, 1))
    ta = evolve(field, z0, g, scheme="em")
    tb = evolve(field, z0 + np.array([delta, 0.0]), g, scheme="em")
    sep = np.linalg.norm(ta.states - tb.states, axis=-1)
    assert sep.max() <= np.exp(5.0) * delta


# ---------------------------------------------------------------------------
# chunking and divergence


def test_evolve_prefix_consistency():
    # doubling the batch cannot change the first half, and every path keeps
    # its own stream when the batch crosses a WORK_CHUNK boundary
    n = WORK_CHUNK // 2 + 4
    field = library_field("hoelder-drift", 1)
    g = BrownianGrid(9, 1.0 / 16, 16, 1)
    small = evolve(field, np.tile([0.2, -0.1], (n, 1)), g)
    big = evolve(field, np.tile([0.2, -0.1], (2 * n, 1)), g)
    assert 2 * n > WORK_CHUNK
    assert np.array_equal(small.states, big.states[:n])
    free = evolve(library_field("free", 1), np.zeros((2 * n, 2)), g)
    assert np.array_equal(free.states[:, 1:, 1],
                          np.cumsum(g.increments(0, 2 * n)[..., 0], axis=1))


def blowup_field():
    """Cubic velocity drift that overflows to inf within a few steps."""
    return CoefficientField(
        1, lambda t, z: 1e3 * np.asarray(z)[..., 1:] ** 3,
        lambda t, z: np.broadcast_to(np.eye(1),
                                     np.asarray(z).shape[:-1] + (1, 1)),
        1e9, "blowup", {}, np.eye(1))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_evolve_divergence_policy():
    # the cubic drift is supposed to overflow; that is the detector's input
    g = BrownianGrid(1, 0.25, 8, 1)
    with pytest.raises(DivergenceError):
        evolve(blowup_field(), np.tile([0.0, 1.0], (16, 1)), g)

"""Path integrator: noise lattice, schemes, coupling, chunking, divergence."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_flow import integrator
from kinetic_flow.errors import DivergenceError, ValidationError
from kinetic_flow.fields import CoefficientField, library_field
from kinetic_flow.integrator import (DIVERGENCE_THRESHOLD, GRID_TOL,
                                    WORK_CHUNK, BrownianGrid, Trajectory,
                                    evolve, map_walk, row_norm, step_index,
                                    uniform_step, walk)


def zero_noise_field():
    """b = 0, sigma = 0: deterministic free flight under em."""
    zero_b = lambda t, z: np.zeros(np.asarray(z).shape[:-1] + (1,))
    zero_s = lambda t, z: np.zeros(np.asarray(z).shape[:-1] + (1, 1))
    return CoefficientField(1, zero_b, zero_s, 1.0, "flight",
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


def test_brownian_normals_prefix_draw_matches_full_block():
    # a short range draws only the leading rows of its key block; they must
    # equal the same rows of the whole block, also across a block boundary
    g = BrownianGrid(11, 0.05, 6, 2)
    full = g.normals(0, 512)
    for j in (0, 37, 255):
        assert np.array_equal(g.normals(j, j + 1), full[j:j + 1])
    assert np.array_equal(g.normals(0, 256), full[:256])
    assert np.array_equal(g.normals(250, 262), full[250:262])


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


def test_coarsened_grid_is_a_grid_on_the_fine_horizon():
    # 3 steps of fl(3 * 0.1) end at 0.9000000000000001, but the coarse
    # grid must stop where the fine one does
    g = BrownianGrid(4, 0.1, 9, 2)
    coarse = g.coarsened(3)
    assert isinstance(coarse, BrownianGrid)
    assert (coarse.master_seed, coarse.dt, coarse.num_steps, coarse.dim) == (
        4, 0.1 * 3, 3, 2)
    assert coarse.dt * coarse.num_steps != g.horizon
    assert coarse.horizon == g.horizon == 0.9
    traj = evolve(library_field("free", 2), np.zeros((2, 4)), coarse)
    assert np.array_equal(traj.times, np.linspace(0.0, 0.9, 4))


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


def test_brownian_grid_for_horizon():
    assert (BrownianGrid.for_horizon(3, 1.0, 1.0 / 64, 1)
            == BrownianGrid(3, 1.0 / 64, 64, 1))
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: still 3 steps
    assert BrownianGrid.for_horizon(3, 0.3, 0.1, 1).num_steps == 3
    for horizon, dt in ((0.5, 0.3), (1.0, 0.4), (0.01, 0.1), (1.0, 0.0),
                        (0.0, 0.1)):
        with pytest.raises(ValidationError):
            BrownianGrid.for_horizon(3, horizon, dt, 1)


def test_step_index_tolerance_scales_with_the_horizon():
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: still step 3
    assert step_index(0.3, 0.1, 1.0) == 3
    assert type(step_index(0.3, 0.1, 1.0)) is int
    assert step_index(0.5 + GRID_TOL / 10, 0.25, 1.0) == 2
    with pytest.raises(ValidationError, match="not a whole number"):
        step_index(0.5 + 10 * GRID_TOL, 0.25, 1.0)
    # the tolerance is GRID_TOL * max(1, horizon): 5 GRID_TOL off is too
    # far on a unit horizon, within it on a horizon of 10
    with pytest.raises(ValidationError, match="not a whole number"):
        step_index(0.5 + 5 * GRID_TOL, 0.25, 1.0)
    assert step_index(0.5 + 5 * GRID_TOL, 0.25, 10.0) == 2


def test_step_index_range_origin_and_arrays():
    steps = step_index([0.0, 0.5, 1.0], 0.25, 1.0)
    assert steps.dtype.kind == "i" and steps.tolist() == [0, 2, 4]
    assert step_index(0.75, 0.25, 1.0, origin=0.25) == 2
    for t, origin in ((-0.25, 0.0), (1.25, 0.0), (0.0, 0.25)):
        with pytest.raises(ValidationError, match="lies outside the grid"):
            step_index(t, 0.25, 1.0, origin=origin)
    # one off-grid entry refuses the whole array, naming that entry
    with pytest.raises(ValidationError, match="^0.3 is not a whole number"):
        step_index([0.25, 0.3, 0.5], 0.25, 1.0)


def test_uniform_step_accepts_only_uniform_increasing_times():
    assert uniform_step(np.linspace(0.0, 1.0, 5)) == 0.25
    assert uniform_step(np.arange(4) * 0.1 + 0.5) == pytest.approx(0.1)
    near = np.linspace(0.0, 1.0, 5)
    near[2] += GRID_TOL / 10
    assert uniform_step(near) == 0.25
    near[2] += 10 * GRID_TOL
    with pytest.raises(ValidationError, match="uniform time grid"):
        uniform_step(near)
    for times in ([0.0, 0.25, 0.25, 1.0], [0.0, 0.3, 0.5], [1.0, 0.5, 0.0]):
        with pytest.raises(ValidationError, match="uniform time grid"):
            uniform_step(times)
    for times in ([0.5], [[0.0, 1.0]]):
        with pytest.raises(ValidationError, match="at least two times"):
            uniform_step(times)


def test_horizon_off_the_step_grid_is_refused_everywhere():
    from kinetic_flow.flow import (convergence_study, homeomorphism_check,
                                   two_point_moment, weak_gradient_moment)
    from kinetic_flow.fokker_planck import particle_measure, point_mass
    from kinetic_flow.krylov import (bump_family, krylov_ratio,
                                     occupation_functional)
    from kinetic_flow.zvonkin import (SpaceTimeField, transformed_sde_residual,
                                      zvonkin_transform)

    free = library_field("free", 1)
    z, z_v = np.zeros(2), np.array([0.0, 1e-3])
    # velocity split of the free flow: |dZ_t|^2 / |dz|^2 = 1 + t^2
    est, = two_point_moment(free, z, [z_v], 1.0, 100, 0.6, 0.3)
    assert abs(est.value - 1.36) <= 1e-9
    # rounding T = 0.5 to 2 steps of 0.3 would report the t = 0.6 value
    calls = [
        lambda: two_point_moment(free, z, [z_v], 1.0, 100, 0.5, 0.3),
        lambda: weak_gradient_moment(free, z, 1e-3, [2.0], 100, 0.5, 0.3),
        lambda: homeomorphism_check(free, [[0.0, 0.0], [0.5, 0.0]], 2, 0.5,
                                    0.3),
        lambda: convergence_study(free, (4, 8, 16), 2.0, 100, 0.5, 0.3, 7.0),
        lambda: krylov_ratio(free, bump_family(), 7.0, [(0.0, 0.5)], 100,
                             0.5, 0.3),
        lambda: particle_measure(free, point_mass(z), 100, 0.5, 0.3),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="not a whole number"):
            call()

    # every other time a caller maps to a step obeys the same rule: a time
    # 10 GRID_TOL off the dt = 0.25 grid is refused, GRID_TOL / 10 off is
    # accepted
    grid = BrownianGrid(0, 0.25, 2, 1)
    traj = evolve(free, np.zeros((4, 2)), grid)
    # the grid a restarted krylov window runs on, from t0 = 0.25
    restarted = Trajectory(traj.times + 0.25, traj.states)
    one = lambda z: np.ones(z.shape[:-1])  # noqa: E731
    transform = zvonkin_transform(
        SpaceTimeField.zeros(2, 0.5, 6.0, 8, 1, 0.5), np.eye(1))
    timed = [
        lambda t: particle_measure(free, point_mass(z), 4, 0.5, 0.25,
                                   checkpoints=[t, 0.5]),
        lambda t: krylov_ratio(free, bump_family(), 7.0, [(t, 0.5)], 100,
                               0.5, 0.25, restart=True),
        lambda t: occupation_functional(restarted, one, t + 0.25, 0.75),
        lambda t: transformed_sde_residual(transform, free, z, grid, 4,
                                           checkpoints=(t, 0.5)),
    ]
    for call in timed:
        with pytest.raises(ValidationError, match="not a whole number"):
            call(0.25 + 10 * GRID_TOL)
        call(0.25 + GRID_TOL / 10)


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
    emp = np.cov(traj.states[:, -1].T, ddof=1)
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
    vT = traj.states[:, -1, 1]
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


def test_walk_yields_what_evolve_records():
    # one chunk after another, each stepped through k = 0 .. num_steps with
    # the increment that drives the next step
    n = WORK_CHUNK + 3
    field = library_field("hoelder-drift", 1)
    g = BrownianGrid(4, 1.0 / 8, 8, 1)
    z0 = np.tile([0.1, 0.3], (n, 1))
    traj = evolve(field, z0, g, scheme="kinetic-exact")
    inc = g.increments(0, n)
    seen = []
    for lo, hi, k, state, dW in walk(field, z0, g, scheme="kinetic-exact"):
        seen.append((lo, hi, k))
        assert np.array_equal(state, traj.states[lo:hi, k])
        if k < g.num_steps:
            assert np.array_equal(dW, inc[lo:hi, k])
        else:
            assert dW is None
    assert seen == [(lo, min(lo + WORK_CHUNK, n), k)
                    for lo in (0, WORK_CHUNK) for k in range(g.num_steps + 1)]


@pytest.mark.parametrize("scheme,coarsen", [("em", 1), ("kinetic-exact", 1),
                                            ("em", 2)])
def test_walk_of_one_chunk_at_its_offset_matches_the_whole_walk(scheme, coarsen):
    # a chunk walked on its own with path_offset = lo is chunk [lo, hi) of
    # the whole walk, bit for bit: what a map_walk task runs
    n = WORK_CHUNK + 5
    field = library_field("hoelder-drift", 1)
    g = BrownianGrid(6, 1.0 / 8, 8, 1)
    if coarsen > 1:
        g = g.coarsened(coarsen)
    z0 = np.random.default_rng(2).uniform(-1.0, 1.0, size=(n, 2))
    whole = {(lo, k): (state, dW)
             for lo, _, k, state, dW in walk(field, z0, g, scheme=scheme)}
    for lo, hi in ((0, WORK_CHUNK), (WORK_CHUNK, n)):
        for sub_lo, sub_hi, k, state, dW in walk(field, z0[lo:hi], g,
                                                 scheme=scheme, path_offset=lo):
            assert (sub_lo, sub_hi) == (0, hi - lo)
            full_state, full_dW = whole[lo, k]
            assert state.tobytes() == full_state.tobytes()
            if k < g.num_steps:
                assert dW.tobytes() == full_dW.tobytes()
            else:
                assert dW is None and full_dW is None


@pytest.mark.parametrize("scheme,coarsen", [("em", 1), ("kinetic-exact", 1),
                                            ("em", 2)])
def test_walk_of_a_start_stack_matches_each_start_alone(monkeypatch, scheme,
                                                        coarsen):
    # start s of an (s, n, 2d) stack gets row i's noise from stream
    # path_offset + i, as a walk of that start alone does: same states and
    # increments bit for bit, across chunk boundaries and at an offset
    monkeypatch.setattr(integrator, "WORK_CHUNK", 16)
    n, offset = 40, 5
    field = library_field("hoelder-drift", 2)
    g = BrownianGrid(8, 1.0 / 8, 8, 2)
    if coarsen > 1:
        g = g.coarsened(coarsen)
    z0 = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, n, 4))
    alone = [{(lo, k): (state, dW) for lo, _, k, state, dW
              in walk(field, z, g, scheme=scheme, path_offset=offset)}
             for z in z0]
    seen = []
    for lo, hi, k, state, dW in walk(field, z0, g, scheme=scheme,
                                     path_offset=offset):
        seen.append((lo, hi, k))
        assert state.shape == (3, hi - lo, 4)
        for s, lone in enumerate(alone):
            lone_state, lone_dW = lone[lo, k]
            assert state[s].tobytes() == lone_state.tobytes()
            if k < g.num_steps:
                assert dW.tobytes() == lone_dW.tobytes()
            else:
                assert dW is None and lone_dW is None
    assert seen == [(lo, min(lo + 16, n), k) for lo in (0, 16, 32)
                    for k in range(g.num_steps + 1)]
    # evolve records a stack with its start axis in front
    stacked = evolve(field, z0, g, scheme=scheme).states
    assert stacked.shape == (3, n, g.num_steps + 1, 4)
    assert np.array_equal(stacked[1],
                          evolve(field, z0[1], g, scheme=scheme).states)


def steps_seen(steps):
    """Every (lo, hi, k, state, dW) of a walk, as bytes."""
    return [(lo, hi, k, state.tobytes(), None if dW is None else dW.tobytes())
            for lo, hi, k, state, dW in steps]


def constant_sigma_field(dim, sig):
    """``library_field("hoelder-drift", dim)`` with the constant noise
    matrix ``sig``."""
    def sigma(t, z):
        return np.broadcast_to(sig, np.asarray(z).shape[:-1] + sig.shape).copy()

    return replace(library_field("hoelder-drift", dim), sigma=sigma,
                   constant_sigma=sig)


@pytest.mark.parametrize("dim,sig", [
    (1, None), (2, None), (2, np.array([[1.3, 0.4], [0.4, 0.7]])),
    (2, np.array([[1.2, 0.0], [0.5, 0.8]]))])
def test_constant_sigma_step_matches_the_per_state_sigma_step(dim, sig):
    # the step multiplies dW by constant_sigma once per chunk-step; the
    # same field without constant_sigma evaluates sigma at every state of
    # the stack: identical states and increments at every step, for the
    # identity, an SPD and a lower-triangular sigma
    field = (library_field("hoelder-drift", dim) if sig is None
             else constant_sigma_field(dim, sig))
    per_state = replace(field, constant_sigma=None)
    g = BrownianGrid(12, 1.0 / 16, 16, dim)
    z0 = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 50, 2 * dim))
    const = steps_seen(walk(field, z0, g))
    assert const == steps_seen(walk(per_state, z0, g))
    assert len(const) == g.num_steps + 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("width", range(1, 10))
def test_row_norm_is_bit_for_bit_linalg_norm(width):
    # random rows of every magnitude plus rows of zeros, subnormals,
    # +-inf and NaN; numpy adds up to 7 terms left to right, wider rows
    # take the np.sum path
    rng = np.random.default_rng(width)
    x = (rng.standard_normal((5, 700, width))
         * np.exp(rng.uniform(-40.0, 40.0, (5, 700, width))))
    special = [0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1e300]
    x[:, :64] = rng.choice(special, size=(5, 64, width))
    x[0, 64] = 0.0
    x[0, 65] = 5e-324
    norm = row_norm(x)
    assert norm.tobytes() == np.linalg.norm(x, axis=-1).tobytes()
    squared = row_norm(x, squared=True)
    assert squared.tobytes() == np.sum(x * x, axis=-1).tobytes()
    # a single row and a slice that is not contiguous
    assert (row_norm(x[1, 3]).tobytes()
            == np.linalg.norm(x[1, 3], axis=-1).tobytes())
    assert (row_norm(x[:, ::3]).tobytes()
            == np.linalg.norm(x[:, ::3], axis=-1).tobytes())
    assert np.isnan(norm[0, :64]).any() and np.isinf(norm[0, :64]).any()


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_map_walk_folds_each_chunk_walked_at_its_offset(monkeypatch, workers):
    # 37 rows in chunks of 16 are 3 tasks; each folds the walk of its rows
    # on streams lo .. hi - 1, and the folds come back in row order
    monkeypatch.setattr(integrator, "WORK_CHUNK", 16)
    monkeypatch.setenv("KF_WORKERS", workers)
    field = library_field("hoelder-drift", 1)
    g = BrownianGrid(5, 1.0 / 8, 8, 1)
    z0 = np.random.default_rng(4).uniform(-1.0, 1.0, size=(2, 37, 2))
    folds = map_walk(field, z0, g, steps_seen, scheme="kinetic-exact")
    assert folds == [steps_seen(walk(field, z0[:, lo:lo + 16], g,
                                     scheme="kinetic-exact", path_offset=lo))
                     for lo in (0, 16, 32)]
    assert [fold[0][:2] for fold in folds] == [(0, 16), (0, 16), (0, 5)]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_map_walk_returns_a_chunk_divergence_and_leaves_no_worker(
        monkeypatch, workers):
    import multiprocessing

    monkeypatch.setattr(integrator, "WORK_CHUNK", 16)
    monkeypatch.setenv("KF_WORKERS", workers)
    z0 = np.zeros((37, 2))
    z0[20] = np.nan
    with pytest.raises(DivergenceError,
                       match=r"^state diverged past 1e\+06 at step 0$"):
        map_walk(library_field("free", 1), z0, BrownianGrid(1, 0.25, 4, 1),
                 steps_seen)
    assert multiprocessing.active_children() == []


def test_walk_refuses_a_wrong_last_axis_or_more_than_three_axes():
    field = library_field("hoelder-drift", 1)
    g = BrownianGrid(1, 0.25, 4, 1)
    for z0 in (np.zeros(3), np.zeros((5, 3)), np.zeros((2, 5, 3)),
               np.zeros((2, 2, 5, 2))):
        with pytest.raises(ValidationError, match="initial state"):
            next(walk(field, z0, g))


@pytest.mark.parametrize("scheme, bound", [("em", 2.0), ("kinetic-exact", 3.0)])
def test_evolve_peak_memory_within_one_chunk(serial, scheme, bound):
    # at most one chunk: the path beside its noise (normals, 2d per step)
    # and the increments cut from them (d per step), but no block copies
    field = library_field("hoelder-drift", 1)
    g = BrownianGrid(3, 1.0 / 64, 64, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = evolve(field, np.zeros((WORK_CHUNK, 2)), g, scheme=scheme)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound * traj.states.nbytes        # 4.3 MB of path


def blowup_field():
    """Cubic velocity drift that overflows to inf within a few steps."""
    return CoefficientField(
        1, lambda t, z: 1e3 * np.asarray(z)[..., 1:] ** 3,
        lambda t, z: np.broadcast_to(np.eye(1),
                                     np.asarray(z).shape[:-1] + (1, 1)),
        1e9, "blowup", np.eye(1))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_evolve_divergence_policy():
    # the cubic drift is supposed to overflow; that is the detector's input
    g = BrownianGrid(1, 0.25, 8, 1)
    with pytest.raises(DivergenceError):
        evolve(blowup_field(), np.tile([0.0, 1.0], (16, 1)), g)
    # walk stops at the first state past the threshold, before yielding it
    steps = []
    with pytest.raises(DivergenceError, match="diverged"):
        for _, _, k, state, _ in walk(blowup_field(),
                                      np.tile([0.0, 1.0], (16, 1)), g):
            assert np.abs(state).max() <= DIVERGENCE_THRESHOLD
            steps.append(k)
    assert steps == list(range(len(steps))) and len(steps) < g.num_steps


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_walk_refuses_blowup_before_it_turns_non_finite(monkeypatch):
    g = BrownianGrid(1, 0.25, 8, 1)
    z0 = np.tile([0.0, 1.0], (16, 1))

    def steps_walked():
        steps = []
        try:
            for _, _, k, state, _ in walk(blowup_field(), z0, g):
                steps.append((k, np.all(np.isfinite(state))))
        except DivergenceError:
            pass
        return steps

    refused = len(steps_walked())
    # with no threshold the same paths run on until the first NaN
    monkeypatch.setattr(integrator, "DIVERGENCE_THRESHOLD", np.inf)
    unguarded = steps_walked()
    first_non_finite = next(k for k, finite in unguarded if not finite)
    assert refused < first_non_finite

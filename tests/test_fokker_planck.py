"""Particle measures, weak-form residuals, and measure metrics."""

import numpy as np
import pytest

from kinetic_flow.errors import DivergenceError, ValidationError
from kinetic_flow.fields import CoefficientField, library_field
from kinetic_flow.fokker_planck import (
    EmpiricalMeasure,
    GaussianMeasure,
    TestFunction,
    checkpoints_to_csv,
    exact_measure_constant,
    gaussian_cloud,
    measure_distance,
    monomial_bump,
    particle_measure,
    point_mass,
    two_sample_floor,
    uniform_ball,
    weak_residual,
)
from kinetic_flow.integrator import (
    DIVERGENCE_FRACTION,
    DIVERGENCE_THRESHOLD,
    BrownianGrid,
    evolve,
)


# ---------------------------------------------------------------------------
# initial laws


def test_point_mass_sampling_is_exact():
    law = point_mass([0.3, -1.2])
    atoms = law.sample(5, np.random.default_rng(0))
    assert np.array_equal(atoms, np.tile([0.3, -1.2], (5, 1)))


def test_gaussian_cloud_moments():
    law = gaussian_cloud([1.0, -2.0], 0.5)
    atoms = law.sample(4000, np.random.default_rng(7))
    se = 0.5 / np.sqrt(4000)
    assert np.all(np.abs(atoms.mean(axis=0) - [1.0, -2.0]) <= 4.0 * se)
    assert np.all(np.abs(atoms.std(axis=0, ddof=1) - 0.5) <= 0.03)


def test_uniform_ball_radii():
    law = uniform_ball([0.0, 0.0], 2.0)
    r = np.linalg.norm(law.sample(4000, np.random.default_rng(8)), axis=1)
    assert r.max() <= 2.0
    # solid-ball radial law in the phase plane: E r = 2 R / 3
    assert abs(r.mean() - 4.0 / 3.0) <= 0.05


def test_initial_law_validation():
    with pytest.raises(ValidationError):
        gaussian_cloud([0.0, 0.0], 0.0)
    with pytest.raises(ValidationError):
        uniform_ball([0.0, 0.0], -1.0)
    with pytest.raises(ValidationError):
        point_mass([0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        point_mass([np.nan, 0.0])


# ---------------------------------------------------------------------------
# particle measures


def hoelder_checkpoints():
    field = library_field("hoelder-drift", 1)
    measures = particle_measure(field, point_mass([0.0, 0.0]), 200, 0.25,
                                1.0 / 32, master_seed=3)
    return field, measures


def test_particle_measure_structure():
    field, measures = hoelder_checkpoints()
    assert len(measures) == 9
    for mu in measures:
        assert mu.mass == 1.0
        assert mu.num_atoms == 200
        assert np.array_equal(mu.atom_ids, measures[0].atom_ids)
    assert np.allclose([m.t for m in measures], np.linspace(0.0, 0.25, 9),
                       rtol=0.0, atol=1e-15)
    assert np.array_equal(measures[0].atoms, np.zeros((200, 2)))


def test_particle_measure_checkpoint_subset():
    field = library_field("hoelder-drift", 1)
    ms = particle_measure(field, point_mass([0.0, 0.0]), 50, 0.25, 1.0 / 32,
                          checkpoints=[0.125, 0.25], master_seed=3)
    assert [m.t for m in ms] == [0.125, 0.25]
    with pytest.raises(ValidationError):
        particle_measure(field, point_mass([0.0, 0.0]), 50, 0.25, 1.0 / 32,
                         checkpoints=[0.13])


def unit_sigma(t, z):
    return np.broadcast_to(np.eye(1), np.asarray(z).shape[:-1] + (1, 1))


def kick_field(level):
    """Zero drift until v exceeds ``level``, then a finite 1e8 kick that
    carries the atom far past the divergence threshold."""
    return CoefficientField(
        1, lambda t, z: np.where(np.asarray(z)[..., 1:] > level, 1e8, 0.0),
        unit_sigma, 1e9, "kick", {}, np.eye(1))


def test_particle_measure_drops_and_counts_diverged_atoms():
    n, dt = 8000, 1.0 / 16
    field = kick_field(3.2)
    measures = particle_measure(field, point_mass([0.0, 0.0]), n, 1.0, dt,
                                master_seed=4)
    # the same noise drives a plain evolve of the point mass
    ref = evolve(field, np.zeros((n, 2)), BrownianGrid(4, dt, 16, 1))
    kicked = np.any(ref.states[:, :-1, 1] > 3.2, axis=1)
    assert 0 < kicked.sum() <= DIVERGENCE_FRACTION * n
    assert np.all(np.max(np.abs(ref.states[kicked]), axis=(1, 2))
                  > DIVERGENCE_THRESHOLD)
    assert np.array_equal(measures[0].atom_ids, np.flatnonzero(~kicked))
    for mu in measures:
        assert np.array_equal(mu.atom_ids, measures[0].atom_ids)
        assert mu.total_requested == n
        assert np.array_equal(mu.atoms, ref.states[~kicked, round(mu.t / dt)])
    with pytest.raises(DivergenceError, match="atoms diverged"):
        particle_measure(kick_field(2.0), point_mass([0.0, 0.0]), n, 1.0, dt,
                         master_seed=4)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_particle_measure_aborts_on_non_finite_state():
    blowup = CoefficientField(
        1, lambda t, z: 1e3 * np.asarray(z)[..., 1:] ** 3, unit_sigma,
        1e9, "blowup", {}, np.eye(1))
    with pytest.raises(DivergenceError, match="non-finite"):
        particle_measure(blowup, point_mass([0.0, 1.0]), 16, 2.0, 0.25)


def test_empirical_measure_validation():
    with pytest.raises(ValidationError):
        EmpiricalMeasure(0.0, np.zeros((4, 3)), np.arange(4), 4)
    with pytest.raises(ValidationError):
        EmpiricalMeasure(0.0, np.zeros((4, 2)), np.arange(3), 4)
    with pytest.raises(ValidationError):
        EmpiricalMeasure(0.0, np.full((4, 2), np.inf), np.arange(4), 4)


def test_expectation_contract():
    mu = EmpiricalMeasure(0.0, np.arange(8.0).reshape(4, 2), np.arange(4), 4)
    val, se = mu.expectation(lambda z: np.full(z.shape[0], 3.0))
    assert val == 3.0 and se == 0.0
    with pytest.raises(ValidationError):
        mu.expectation(lambda z: np.zeros((2,)))


# ---------------------------------------------------------------------------
# weak residual


def test_constant_observable_has_zero_residual():
    # mu_t(c) - mu_0(c) and the generator term both vanish identically,
    # so the telescoped residual is exact zero, not merely small
    field, measures = hoelder_checkpoints()
    table = weak_residual(measures, field, [TestFunction.constant(2.0)])
    assert np.all(table.residuals == 0.0)
    assert np.all(table.std_errors == 0.0)
    assert table.integrability > 0.0
    assert np.array_equal(table.times, [m.t for m in measures[1:]])


def test_weak_residual_validation():
    field, measures = hoelder_checkpoints()
    phi = TestFunction.constant(1.0)
    with pytest.raises(ValidationError, match="at least two checkpoints"):
        weak_residual(measures[:1], field, [phi])
    with pytest.raises(ValidationError, match="uniform time grid"):
        weak_residual([measures[0], measures[1], measures[3]], field, [phi])
    with pytest.raises(ValidationError, match="empty test set"):
        weak_residual(measures, field, [])
    with pytest.raises(ValidationError, match="disagrees"):
        weak_residual(measures, field, [phi], dt=1.0 / 16)
    reseated = [measures[0],
                EmpiricalMeasure(measures[1].t, measures[1].atoms,
                                 measures[1].atom_ids + 1, 200)]
    with pytest.raises(ValidationError, match="share their atom set"):
        weak_residual(reseated, field, [phi])
    bare = TestFunction("raw", value=lambda z: np.zeros(z.shape[:-1]))
    with pytest.raises(ValidationError, match="derivative closures"):
        weak_residual(measures, field, [bare])


def test_monomial_bump_plateau_values():
    phi = monomial_bump(2, 1, r_in=2.5, r_out=4.0)
    z = np.array([[0.5, -1.5], [2.0, 2.0], [-1.0, 0.0]])
    assert np.allclose(phi.value(z), z[:, 0] ** 2 * z[:, 1], rtol=1e-15)
    far = np.array([[5.0, 0.0], [0.0, -4.5]])
    assert np.all(phi.value(far) == 0.0)
    with pytest.raises(ValidationError):
        monomial_bump(-1, 0)
    with pytest.raises(ValidationError):
        monomial_bump(1, 1, r_in=3.0, r_out=2.0)


# ---------------------------------------------------------------------------
# exact comparison law


def test_exact_measure_free_flight_mean_and_blocks():
    g = exact_measure_constant(0.5, [0.3, -0.1], 1.0)
    assert np.allclose(g.mean, [0.2, -0.1], rtol=0.0, atol=1e-15)
    assert np.allclose(g.cov, [[1.0 / 3.0, 0.5], [0.5, 1.0]], rtol=1e-12)


def test_exact_measure_at_time_zero_is_point_mass():
    g = exact_measure_constant(0.5, [0.3, -0.1], 0.0)
    assert np.array_equal(g.cov, np.zeros((2, 2)))
    assert np.array_equal(g.sample(3), np.tile([0.3, -0.1], (3, 1)))


def test_gaussian_measure_validation():
    with pytest.raises(ValidationError):
        GaussianMeasure(np.zeros(2), np.ones((2, 3)))
    with pytest.raises(ValidationError):
        GaussianMeasure(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ValidationError):
        exact_measure_constant(0.5, [0.0, 0.0], -1.0)
    loc, var = GaussianMeasure(np.array([1.0, 2.0]), np.eye(2)).marginal(
        [1.0, 0.0])
    assert loc == 1.0 and var == 1.0


# ---------------------------------------------------------------------------
# measure metrics


def random_cloud(seed, n=500, scale=1.0, shift=(0.0, 0.0)):
    rng = np.random.default_rng(seed)
    atoms = scale * rng.normal(size=(n, 2)) + np.asarray(shift)
    return EmpiricalMeasure(0.0, atoms, np.arange(n), n)


def test_distance_self_is_zero():
    mu = random_cloud(0)
    assert measure_distance(mu, mu) == 0.0
    assert measure_distance(mu, mu, "test-sup") == 0.0


def test_sliced_distance_translation_invariant():
    mu, nu = random_cloud(0), random_cloud(1, scale=1.3)
    tau = np.array([0.7, -0.4])
    moved = measure_distance(random_cloud(0, shift=tau),
                             random_cloud(1, scale=1.3, shift=tau))
    assert np.isclose(measure_distance(mu, nu), moved, rtol=1e-12)


def test_sliced_distance_point_pair_bound():
    a = EmpiricalMeasure(0.0, np.array([[0.2, 0.4]]), np.arange(1), 1)
    b = EmpiricalMeasure(0.0, np.array([[1.2, -0.3]]), np.arange(1), 1)
    d = measure_distance(a, b)
    # each projection contributes |u . (a - b)| <= |a - b|
    assert 0.0 < d <= np.linalg.norm([1.0, -0.7])


def test_distance_validation():
    mu = random_cloud(0)
    with pytest.raises(ValidationError, match="unknown metric"):
        measure_distance(mu, mu, "energy")
    with pytest.raises(ValidationError):
        measure_distance(mu, GaussianMeasure(np.zeros(4), np.eye(4)))
    with pytest.raises(ValidationError):
        measure_distance("not a measure", mu)


def test_two_sample_floor_scale():
    gm = GaussianMeasure(np.zeros(2), np.eye(2))
    floor = two_sample_floor(gm, 2000, master_seed=5)
    assert 0.0 < floor < 0.1
    with pytest.raises(ValidationError):
        two_sample_floor("nope", 2000)


# ---------------------------------------------------------------------------
# persistence


def test_checkpoint_csv_format(tmp_path):
    field, measures = hoelder_checkpoints()
    path = tmp_path / "atoms.csv"
    checkpoints_to_csv(measures[:2], path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").split("\n")
    assert lines[0] == "t,atom_id,x1,v1"
    assert len(lines) == 1 + 2 * 200 + 1    # header + rows + trailing LF
    t, aid, x, v = lines[1].split(",")
    assert float(t) == 0.0 and int(aid) == 0
    assert float(x) == 0.0 and float(v) == 0.0
    with pytest.raises(ValidationError):
        checkpoints_to_csv([], tmp_path / "empty.csv")

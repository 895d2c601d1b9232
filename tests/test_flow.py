"""Flow-map statistics: coupled moments, the homeomorphism check,
convergence, Gronwall."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from kinetic_flow import flow, integrator
from kinetic_flow.errors import DegenerateRatioError, ValidationError
from kinetic_flow.fields import MollifiedField, library_field
from kinetic_flow.flow import (
    GRONWALL_REFERENCE_C,
    convergence_study,
    gronwall_corpus,
    homeomorphism_check,
    phase_grid,
    stochastic_gronwall_check,
    two_point_moment,
    weak_gradient_moment,
)
from kinetic_flow.integrator import evolve


# ---------------------------------------------------------------------------
# coupled moments

# partners of z = (0.3, 0) at three gaps, two in x and one in v
LADDER = [[0.31, 0.0], [0.301, 0.0], [0.3, 0.05]]


def test_two_point_coincident_is_zero():
    field = library_field("hoelder-drift", 1)
    est, = two_point_moment(field, [0.2, 0.1], [[0.2, 0.1]], 2, 200, 0.25,
                            1.0 / 32)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_two_point_rejects_left_tail_orders():
    field = library_field("hoelder-drift", 1)
    with pytest.raises(ValidationError):
        two_point_moment(field, [0.0, 0.0], [[0.1, 0.0]], -1.5, 200, 0.25,
                         1.0 / 32)
    with pytest.raises(ValidationError):
        two_point_moment(field, [0.0, 0.0], [[0.0, 0.0]], -0.5, 200, 0.25,
                         1.0 / 32)
    with pytest.raises(ValidationError):
        two_point_moment(field, [0.0, 0.0], [[0.1, 0.0]], 2, 50, 0.25,
                         1.0 / 32)


def test_two_point_refuses_starts_of_different_lengths(monkeypatch):
    # refused before any noise is drawn, not by numpy's broadcast error
    drawn = []
    monkeypatch.setattr(integrator.BrownianGrid, "normals",
                        lambda self, lo, hi: drawn.append((lo, hi)))
    field = library_field("hoelder-drift", 1)
    for z, z_prime in (([0.0, 0.0], [0.1, 0.0, 0.0]),
                       ([0.0, 0.0, 0.0], [0.1, 0.0, 0.0])):
        with pytest.raises(ValidationError, match="initial states need 2"):
            two_point_moment(field, z, [z_prime], 1.0, 200, 0.25, 1.0 / 32)
    assert drawn == []


@pytest.mark.parametrize("q", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("estimate", [
    lambda f, q: two_point_moment(f, [0.0, 0.0], [[0.1, 0.0]], q, 200, 0.25,
                                  1.0 / 32),
    lambda f, q: weak_gradient_moment(f, [0.0, 0.0], 1e-3, [q], 200, 0.25,
                                      1.0 / 32),
], ids=["two-point", "weak-gradient"])
def test_moment_estimators_refuse_a_non_finite_order(estimate, q):
    with pytest.raises(ValidationError, match="must be finite"):
        estimate(library_field("hoelder-drift", 1), q)


@pytest.mark.parametrize("estimate", [
    lambda f, n: two_point_moment(f, [0.3, 0.0], LADDER, 1.0, n, 0.25,
                                  1.0 / 32),
    lambda f, n: weak_gradient_moment(f, [0.3, 0.0], 1e-2, [2.0], n, 0.25,
                                      1.0 / 32),
], ids=["two-point", "weak-gradient"])
def test_moment_estimators_draw_each_chunk_noise_once(monkeypatch, serial,
                                                     estimate):
    # every coupled start walks on one draw of each chunk's noise
    calls = []
    normals = integrator.BrownianGrid.normals

    def counted(self, lo, hi):
        calls.append((lo, hi))
        return normals(self, lo, hi)

    monkeypatch.setattr(integrator.BrownianGrid, "normals", counted)
    monkeypatch.setattr(integrator, "WORK_CHUNK", 16)
    for est in estimate(library_field("hoelder-drift", 1), 100):
        assert est.num_paths == 100 and np.isfinite(est.value)
    assert calls == [(lo, min(lo + 16, 100)) for lo in range(0, 100, 16)]


@pytest.mark.parametrize("q", [1.0, -1.0])
def test_two_point_ladder_is_its_single_partner_calls(monkeypatch, q):
    # one walk of the stack [z, *partners] gives each partner the bits of
    # its own walk with z, over several chunks
    monkeypatch.setattr(integrator, "WORK_CHUNK", 64)
    field = library_field("hoelder-drift", 1)
    z = [0.3, 0.0]
    ladder = two_point_moment(field, z, LADDER, q, 200, 0.25, 1.0 / 32,
                              master_seed=3)
    alone = [two_point_moment(field, z, [zp], q, 200, 0.25, 1.0 / 32,
                              master_seed=3)[0] for zp in LADDER]
    assert len(ladder) == 3 and ladder == alone


def test_weak_gradient_orders_are_their_single_order_calls(monkeypatch):
    # one walk's running sup of ||grad Z||_F^2 gives each order the bits of
    # its own walk, over several chunks
    monkeypatch.setattr(integrator, "WORK_CHUNK", 64)
    field = library_field("hoelder-drift", 1)
    z = [0.3, 0.0]
    both = weak_gradient_moment(field, z, 1e-2, [2.0, 8.0], 200, 0.25,
                                1.0 / 32, master_seed=3)
    alone = [weak_gradient_moment(field, z, 1e-2, [q], 200, 0.25, 1.0 / 32,
                                  master_seed=3)[0] for q in (2.0, 8.0)]
    assert len(both) == 2 and both == alone
    with pytest.raises(ValidationError, match="at least one moment order"):
        weak_gradient_moment(field, z, 1e-2, [], 200, 0.25, 1.0 / 32)


def test_coincident_partner_reads_zero_and_leaves_the_ladder_alone():
    field = library_field("hoelder-drift", 1)
    z = [0.3, 0.0]
    with pytest.raises(ValidationError, match="two points"):
        two_point_moment(field, z, [], 1.0, 200, 0.25, 1.0 / 32)
    with pytest.raises(ValidationError, match="coincident points"):
        two_point_moment(field, z, [LADDER[0], z], -0.5, 200, 0.25, 1.0 / 32)
    for q in (0.0, 1.0):
        with_z = two_point_moment(field, z, [LADDER[0], z, LADDER[2]], q, 200,
                                  0.25, 1.0 / 32, master_seed=2)
        without = two_point_moment(field, z, [LADDER[0], LADDER[2]], q, 200,
                                   0.25, 1.0 / 32, master_seed=2)
        assert with_z[1].value == 0.0 and with_z[1].std_error == 0.0
        assert with_z[1].num_paths == 200
        assert [with_z[0], with_z[2]] == without


def test_coupled_estimators_are_the_same_bits_for_any_worker_count(
        monkeypatch):
    # 100 rows in chunks of 16 are 7 tasks; forked workers inherit the
    # patched chunk
    monkeypatch.setattr(integrator, "WORK_CHUNK", 16)
    field = library_field("hoelder-drift", 1)
    pts, shape = phase_grid(1.0, 1.0, 3, 3)
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("KF_WORKERS", workers)
        report = homeomorphism_check(field, pts, 100, 0.25, 1.0 / 32,
                                     master_seed=4, grid_shape=shape)
        runs.append((
            two_point_moment(field, [0.3, 0.0], LADDER, 1.0, 100, 0.25,
                             1.0 / 32, master_seed=4),
            weak_gradient_moment(field, [0.3, 0.0], 1e-2, [2.0], 100, 0.25,
                                 1.0 / 32, master_seed=4),
            report.min_ratio.tolist(), report.failures.tolist()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("estimate", [
    lambda f, b: two_point_moment(f, [b, 0.0], [[0.1, 0.0]], 1.0, 200, 0.25,
                                  1.0 / 32),
    lambda f, b: two_point_moment(f, [0.0, 0.0], [[0.1, 0.0], [0.0, b]], 1.0,
                                  200, 0.25, 1.0 / 32),
    lambda f, b: weak_gradient_moment(f, [0.0, b], 1e-3, [2.0], 200, 0.25,
                                      1.0 / 32),
    lambda f, b: homeomorphism_check(f, [[0.0, 0.0], [0.5, b]], 2, 0.5,
                                     1.0 / 32),
], ids=["two-point-z", "two-point-partner", "weak-gradient", "homeomorphism"])
def test_coupled_estimators_refuse_a_non_finite_start(monkeypatch, estimate,
                                                      bad):
    # an input error before any noise is drawn, not a divergence at step 0
    drawn = []
    monkeypatch.setattr(integrator.BrownianGrid, "normals",
                        lambda self, lo, hi: drawn.append((lo, hi)))
    with pytest.raises(ValidationError, match="initial states must be finite"):
        estimate(library_field("hoelder-drift", 1), bad)
    assert drawn == []


def test_weak_gradient_free_field_closed_form():
    # free flow has Jacobian [[1, t], [0, 1]]: sup ||J||_F^2 = 2 + T^2
    field = library_field("free", 1)
    est, = weak_gradient_moment(field, [0.1, -0.3], 1e-3, [2], 300, 0.5,
                                1.0 / 32, master_seed=9)
    assert abs(est.value - 2.25) <= 1e-12
    assert est.std_error <= 1e-12


# ---------------------------------------------------------------------------
# the flow map over a grid of initial points


def test_homeomorphism_check_deterministic_rerun():
    field = library_field("hoelder-drift", 1)
    pts, shape = phase_grid(1.0, 1.0, 4, 4)
    a, b = (homeomorphism_check(field, pts, 3, 0.5, 1.0 / 32, master_seed=5,
                                grid_shape=shape) for _ in range(2))
    assert np.array_equal(a.min_ratio, b.min_ratio)
    assert np.array_equal(a.failures, b.failures)
    assert a.min_ratio.shape == (3,) and a.num_pairs == 16 * 15 // 2
    assert a.t == 0.5


def test_homeomorphism_check_replica_coupling(monkeypatch, serial):
    # within one replica every initial point consumes the same stream, so
    # two coincident-velocity starts of the free field keep their exact gap
    # at every step, not only at the horizon
    field = library_field("free", 1)
    pts = np.array([[0.0, 0.5], [1.0, 0.5]])
    walked = flow._coupled_walk
    gaps = []

    def recording(*args):
        *head, fold, acc = args

        def spy(acc, state):
            gaps.append(state[1] - state[0])
            return fold(acc, state)
        return walked(*head, spy, acc)

    monkeypatch.setattr(flow, "_coupled_walk", recording)
    report = homeomorphism_check(field, pts, 2, 0.5, 1.0 / 32, master_seed=1)
    gaps = np.array(gaps)
    assert gaps.shape == (17, 2, 2)
    assert np.abs(gaps[..., 0] - 1.0).max() <= 1e-12
    assert np.all(gaps[..., 1] == 0.0)
    assert np.abs(report.min_ratio - 1.0).max() <= 1e-12


@pytest.mark.parametrize("name, dim", [("hoelder-drift", 1),
                                       ("anisotropic-sigma", 2)])
def test_homeomorphism_check_replica_is_the_row_stream(monkeypatch, serial,
                                                       name, dim):
    # replica r of point p at T is row r of a walk of point p tiled over
    # the replicas, bit for bit
    field = library_field(name, dim)
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (6, 2 * dim))
    replicas, horizon, dt = 5, 0.5, 1.0 / 32
    walked = flow._coupled_walk
    final = []

    def recording(*args):
        final.append(walked(*args))
        return final[-1]

    monkeypatch.setattr(flow, "_coupled_walk", recording)
    report = homeomorphism_check(field, pts, replicas, horizon, dt,
                                 master_seed=7)
    grid = integrator.BrownianGrid.for_horizon(7, horizon, dt, dim)
    alone = np.stack([evolve(field, np.tile(p, (replicas, 1)), grid)
                      .states[:, -1, :] for p in pts])
    assert np.array_equal(final[0], alone)
    ratios = [np.min(pdist(alone[:, r]) / pdist(pts)) for r in range(replicas)]
    assert np.array_equal(report.min_ratio, ratios)


def test_homeomorphism_check_refusals(monkeypatch):
    # refused before any noise is drawn
    drawn = []
    monkeypatch.setattr(integrator.BrownianGrid, "normals",
                        lambda self, lo, hi: drawn.append((lo, hi)))
    field = library_field("free", 1)
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(ValidationError, match="duplicate"):
        homeomorphism_check(field, np.zeros((2, 2)), 1, 0.5, 1.0 / 32)
    with pytest.raises(ValidationError, match="num_replicas"):
        homeomorphism_check(field, pts, 0, 0.5, 1.0 / 32)
    with pytest.raises(ValidationError, match="two points"):
        homeomorphism_check(field, pts[:1], 1, 0.5, 1.0 / 32)
    with pytest.raises(ValidationError, match="not a whole number"):
        homeomorphism_check(field, pts, 1, 0.5, 0.3)
    assert drawn == []


@pytest.mark.parametrize("num_points, shape", [(10, (4, 4)), (16, (3, 4))])
def test_homeomorphism_check_refuses_a_grid_shape_off_the_points(
        monkeypatch, num_points, shape):
    # (4, 4) over 10 points would index past them; (3, 4) over 16 would
    # check only 12 points' lines.  Both are refused before any draw.
    drawn = []
    monkeypatch.setattr(integrator.BrownianGrid, "normals",
                        lambda self, lo, hi: drawn.append((lo, hi)))
    pts = phase_grid(1.0, 1.0, 4, 4)[0][:num_points]
    with pytest.raises(ValidationError, match="grid_shape"):
        homeomorphism_check(library_field("free", 1), pts, 2, 0.5, 1.0 / 32,
                            grid_shape=shape)
    assert drawn == []


def test_homeomorphism_free_field():
    field = library_field("free", 1)
    pts, shape = phase_grid(1.0, 1.0, 6, 6)
    report = homeomorphism_check(field, pts, 4, 0.5, 1.0 / 32, master_seed=3,
                                 grid_shape=shape)
    assert report.passed
    assert np.all(report.failures == 0)
    # free shear [[1, T], [0, 1]] contracts pair gaps by at most its
    # smallest singular value (sqrt(T^2 + 4) - T) / 2
    sigma_min = 0.5 * (np.sqrt(4.25) - 0.5)
    assert report.min_ratio.min() >= sigma_min - 1e-9


# ---------------------------------------------------------------------------
# mollification convergence


def test_convergence_study_flat_family_degenerates():
    # the free field mollifies to itself: every ladder gap vanishes exactly
    # and the spread/slope diagnostics are undefined
    field = library_field("free", 1)
    table = convergence_study(field, (2, 4, 8), 2, 128, 0.25, 1.0 / 16, 7.0,
                              z0=np.zeros(2), master_seed=2)
    assert np.all(table.e == 0.0)
    with pytest.raises(DegenerateRatioError):
        table.ratio_spread()
    with pytest.raises(DegenerateRatioError):
        table.slope()


def test_convergence_study_levels_independent_of_workers(monkeypatch):
    field = library_field("hoelder-drift", 1)
    monkeypatch.setattr(flow, "LP_POINTS_PER_AXIS", 65)
    tables = []
    for workers in ("1", "2"):
        monkeypatch.setenv("KF_WORKERS", workers)
        tables.append(convergence_study(field, (2, 4, 8), 2.0, 128, 0.25,
                                        1.0 / 16, 7.0, z0=np.array([0.3, 0.0]),
                                        master_seed=5))
    serial, pooled = tables
    for key in ("n", "e", "e_fine", "bound", "dt_ok"):
        assert np.array_equal(getattr(serial, key), getattr(pooled, key))
    # e_n and B_n as recorded once the plateau summed one term per distinct
    # node projection
    assert [repr(float(x)) for x in serial.e] == [
        "0.005803750263401787", "0.0009257974135139815"]
    assert [repr(float(x)) for x in serial.e_fine] == [
        "0.005800159328549607", "0.0009362336208310622"]
    assert [repr(float(x)) for x in serial.bound] == [
        "0.659286195361074", "0.3858834138883508"]


def test_convergence_study_samples_each_level_once_on_the_box(monkeypatch,
                                                              serial):
    # the library fields are autonomous, so each level's drift is sampled
    # on the L^p box once, not once per time node
    base = library_field("hoelder-drift", 1)
    box_shape = (33, 33, 2)
    sampled = []

    class Counting(MollifiedField):
        def drift(self, t, z):
            if np.shape(z) == box_shape:
                sampled.append(self.n)
            return super().drift(t, z)

    monkeypatch.setattr(flow, "mollified", Counting)
    monkeypatch.setattr(flow, "LP_POINTS_PER_AXIS", box_shape[0])
    convergence_study(base, (2, 4, 8), 2.0, 128, 0.25, 1.0 / 16, 7.0,
                      z0=np.array([0.3, 0.0]), master_seed=5)
    assert sorted(sampled) == [2, 4, 8]


def test_convergence_study_ladder_validation():
    field = library_field("hoelder-drift", 1)
    with pytest.raises(ValidationError, match="CoefficientField"):
        convergence_study(lambda n: MollifiedField(field, n), (2, 4, 8), 2,
                          128, 0.25, 1.0 / 16, 7.0)
    with pytest.raises(ValidationError):
        convergence_study(field, (2, 4), 2, 128, 0.25, 1.0 / 16, 7.0,
                          z0=np.zeros(2), master_seed=2)


@pytest.mark.parametrize("q", [0.0, -1.0, float("nan"), float("inf")])
def test_convergence_study_refuses_a_bad_order_before_any_level(monkeypatch,
                                                                q):
    # q = 0 would divide by zero in the 1/q root and nan would fill the
    # table, each only after the whole ladder ran
    def no_levels(fn, items):
        raise AssertionError("a level ran")

    monkeypatch.setattr(flow, "parallel_map", no_levels)
    with pytest.raises(ValidationError, match="moment order q"):
        convergence_study(library_field("hoelder-drift", 1), (2, 4, 8), q,
                          128, 0.25, 1.0 / 16, 7.0)


@pytest.mark.parametrize("z0, message", [
    ([float("nan"), 0.0], "initial states must be finite"),
    ([float("inf"), 0.0], "initial states must be finite"),
    ([0.0, 0.0, 0.0], "initial states need 2"),
], ids=["nan", "inf", "shape"])
def test_convergence_study_refuses_a_bad_start_before_any_level(monkeypatch,
                                                                z0, message):
    # the same start check as the coupled estimators, not a divergence at
    # step 0 or walk's shape error inside the level tasks
    def no_levels(fn, items):
        raise AssertionError("a level ran")

    monkeypatch.setattr(flow, "parallel_map", no_levels)
    with pytest.raises(ValidationError, match=message):
        convergence_study(library_field("hoelder-drift", 1), (2, 4, 8), 2.0,
                          128, 0.25, 1.0 / 16, 7.0, z0=z0)


# ---------------------------------------------------------------------------
# stochastic Gronwall


def test_gronwall_corpus_instances_pass():
    for i, spec in enumerate(gronwall_corpus(3, master_seed=11)):
        chk = stochastic_gronwall_check(spec, num_paths=300,
                                        master_seed=100 + i)
        assert chk.passed
        assert 0.0 < chk.fitted_c <= GRONWALL_REFERENCE_C
        assert chk.lhs >= 0.0


def test_gronwall_corpus_deterministic():
    a = gronwall_corpus(4, master_seed=7)
    b = gronwall_corpus(4, master_seed=7)
    for sa, sb in zip(a, b):
        assert sa == sb or repr(sa) == repr(sb)

"""Particle measures, weak-form residuals, and measure metrics."""

import concurrent.futures
import csv
import dataclasses
import hashlib
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from kinetic_flow import fokker_planck
from kinetic_flow.errors import DivergenceError, ValidationError
from kinetic_flow.fields import CoefficientField, library_field
from kinetic_flow.flow import two_point_moment
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
    test_dictionary as default_dictionary,
    two_sample_floor,
    weak_residual,
)
from kinetic_flow.integrator import (
    DIVERGENCE_THRESHOLD,
    BrownianGrid,
    evolve,
    walk,
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


def test_initial_law_validation():
    with pytest.raises(ValidationError):
        gaussian_cloud([0.0, 0.0], 0.0)
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
    # every atom is kept, row i is path i: the same noise drives a plain
    # evolve of the point mass
    ref = evolve(field, np.zeros((200, 2)), BrownianGrid(3, 1.0 / 32, 8, 1))
    for j, mu in enumerate(measures):
        assert np.array_equal(mu.atoms, ref.states[:, j])
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
        unit_sigma, 1e9, "kick", np.eye(1))


def test_finite_kick_past_the_threshold_raises_everywhere():
    # a few of the 8000 atoms cross v = 3.2 and take a finite 1e8 kick;
    # no estimator keeps or drops them, every one raises walk's error
    n, dt = 8000, 1.0 / 16
    field = kick_field(3.2)
    calls = [
        lambda: particle_measure(field, point_mass([0.0, 0.0]), n, 1.0, dt,
                                 master_seed=4),
        lambda: two_point_moment(field, [0.0, 0.0], [[0.1, 0.0]], 1.0, n, 1.0,
                                 dt, master_seed=4),
        lambda: evolve(field, np.zeros((n, 2)), BrownianGrid(4, dt, 16, 1)),
    ]
    for call in calls:
        with pytest.raises(DivergenceError, match="diverged past 1e\\+06"):
            call()
    # walk yields the kicked state but not the one the kick carries past
    # the threshold
    kicked = False
    with pytest.raises(DivergenceError):
        for _, _, _, state, _ in walk(field, np.zeros((n, 2)),
                                      BrownianGrid(4, dt, 16, 1)):
            assert np.abs(state).max() <= DIVERGENCE_THRESHOLD
            kicked |= bool(np.any(state[:, 1] > 3.2))
    assert kicked


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_particle_measure_aborts_on_non_finite_state():
    blowup = CoefficientField(
        1, lambda t, z: 1e3 * np.asarray(z)[..., 1:] ** 3, unit_sigma,
        1e9, "blowup", np.eye(1))
    with pytest.raises(DivergenceError, match="diverged"):
        particle_measure(blowup, point_mass([0.0, 1.0]), 16, 2.0, 0.25)


def test_particle_measure_peak_memory_checkpoints_plus_chunk_noise(serial):
    # the atoms stream through integrator.walk: the peak is the kept
    # checkpoints plus one work chunk's noise
    field = library_field("hoelder-drift", 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        measures = particle_measure(field, point_mass([0.0, 0.0]), 12_288,
                                    1.0, 1.0 / 64, master_seed=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(mu.atoms.nbytes for mu in measures)       # 12.8 MB
    assert peak < 1.8 * kept


def test_empirical_measure_validation():
    with pytest.raises(ValidationError):
        EmpiricalMeasure(0.0, np.zeros((4, 3)))
    with pytest.raises(ValidationError):
        EmpiricalMeasure(0.0, np.zeros((0, 2)))
    with pytest.raises(ValidationError):
        EmpiricalMeasure(0.0, np.full((4, 2), np.inf))


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
    # row i is atom i at every checkpoint, so the counts must agree
    short = [measures[0], EmpiricalMeasure(measures[1].t, measures[1].atoms[1:])]
    with pytest.raises(ValidationError, match="same atom count"):
        weak_residual(short, field, [phi])
    bare = TestFunction("raw", value=lambda z: np.zeros(z.shape[:-1]))
    with pytest.raises(ValidationError, match="derivative closures"):
        weak_residual(measures, field, [bare])
    # one atom has no ddof = 1 standard error
    single = [EmpiricalMeasure(mu.t, mu.atoms[:1]) for mu in measures]
    with pytest.raises(ValidationError, match="at least 2 atoms"):
        weak_residual(single, field, [phi])


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


def test_generator_apply_on_the_free_plateau_is_exact():
    # free field: b = 0 and a = 1/2, and on the plateau (x, v nonzero,
    # |x|, |v| <= r_in) each bump is its monomial, so L x = v, L v^2 = 1
    # and L xv = v^2 hold bit for bit
    field = library_field("free", 1)
    z = np.random.default_rng(2).uniform(-2.5, 2.5, (500, 2))
    z = np.vstack([z, [[2.5, -2.5], [-2.5, 2.5], [1e-300, -1e-300]]])
    v = z[:, 1]
    for (i, j), expected in (((1, 0), v), ((0, 2), np.ones_like(v)),
                             ((1, 1), v * v)):
        got = monomial_bump(i, j).generator_apply(field, 0.0, z)
        assert np.array_equal(got, expected)


# float.hex of the dictionary residuals on hoelder_checkpoints(), recorded
# from the member-by-member loop that the single checkpoint pass replaced:
# the integrability gate, a SHA-1 over the hex of every residual and
# standard error (row-major, residuals first, space separated), and the
# final-time (residual, SE) pair of each member
PINNED_RESIDUALS = {
    False: ("0x1.25a4b3ff9afeep-4", "8c4c8f0297681b210db9f7901a7e53e9de60ce44", [
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.15b9838ab82d1p-5", "0x1.11c0f198f341cp-5"),
        ("0x1.b5b93ae34c4bdp-11", "0x1.2ae98e38906abp-14"),
        ("-0x1.b48c6c1b97aacp-6", "0x1.7e42daeadfaadp-6"),
        ("-0x1.42319a4d21efap-13", "0x1.34764c6841135p-10"),
        ("0x1.4e6757b583a32p-13", "0x1.5891549ab6220p-13"),
        ("0x1.36c70f639bb88p-9", "0x1.edaf9be942ee2p-10"),
        ("0x1.ba86e069aba6ep-6", "0x1.b438944dd283cp-6"),
        ("0x1.308c20e61c724p-19", "0x1.5ee54b267de6dp-16"),
        ("0x1.1168cb4dd4d8fp-5", "0x1.10b84ecaed1d7p-5"),
        ("0x0.0p+0", "0x0.0p+0"),
    ]),
    True: ("0x1.25a4b3ff9afeep-4", "116968a373c78d522cc9ac54869e56fdd532146c", [
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.428f5c28f5c29p-58", "0x1.ed038d75534b1p-59"),
        ("0x1.b5b93ae34c4bdp-11", "0x1.2ae98e38906abp-14"),
        ("-0x1.0e3b1a2e770f6p-12", "0x1.2b29f12d78d77p-7"),
        ("-0x1.169b9db1e6634p-12", "0x1.644ceede619b1p-12"),
        ("0x1.519321f7abe94p-14", "0x1.cadb36a7365e9p-14"),
        ("0x1.0bcaa9f51d388p-11", "0x1.46dd23870e6b7p-11"),
        ("0x1.1b41a9b973243p-8", "0x1.490e83bf187b0p-7"),
        ("0x1.308c20e61c724p-19", "0x1.5ee54b267de6dp-16"),
        ("-0x1.142e0f38d50ebp-11", "0x1.142e0f38d50ccp-11"),
        ("0x0.0p+0", "0x0.0p+0"),
    ]),
}


def hex_list(values):
    return [float.hex(float(x)) for x in np.ravel(values)]


@pytest.mark.parametrize("control_variate", [False, True])
def test_weak_residual_pinned_bits(control_variate):
    field, measures = hoelder_checkpoints()
    table = weak_residual(measures, field, default_dictionary(),
                          control_variate=control_variate)
    gate, digest, final = PINNED_RESIDUALS[control_variate]
    assert table.residuals.shape == (12, 8)
    assert float.hex(table.integrability) == gate
    assert list(zip(hex_list(table.residuals[:, -1]),
                    hex_list(table.std_errors[:, -1]))) == final
    every = hex_list(table.residuals) + hex_list(table.std_errors)
    assert hashlib.sha1(" ".join(every).encode()).hexdigest() == digest


def counting_field(field, calls):
    def counted(name, fn):
        def wrapped(t, z):
            calls[name] += 1
            return fn(t, z)
        return wrapped

    return dataclasses.replace(field, drift=counted("drift", field.drift),
                               sigma=counted("sigma", field.sigma))


@pytest.mark.parametrize("control_variate", [False, True])
def test_weak_residual_evaluates_field_once_per_checkpoint(serial,
                                                           control_variate):
    field, measures = hoelder_checkpoints()
    calls = {"drift": 0, "sigma": 0}
    counted = counting_field(field, calls)
    table = weak_residual(measures, counted, default_dictionary(),
                          control_variate=control_variate)
    # the last checkpoint's drift and a are read by no term
    assert calls == {"drift": len(measures) - 1, "sigma": len(measures) - 1}
    plain = weak_residual(measures, field, default_dictionary(),
                          control_variate=control_variate)
    assert np.array_equal(table.residuals, plain.residuals)


def test_weak_residual_peak_memory_below_one_state_stack(serial):
    field = library_field("hoelder-drift", 1)
    measures = particle_measure(field, point_mass([0.0, 0.0]), 2000, 1.0,
                                1.0 / 256, master_seed=3)
    assert len(measures) == 257
    stack_bytes = sum(mu.atoms.nbytes for mu in measures)     # 8.2 MB
    for control_variate in (False, True):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            weak_residual(measures, field, default_dictionary(),
                          control_variate=control_variate)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes


def gaussian_member():
    """exp(-|z|^2 / 2) with hand-written closures and no bump data."""
    def value(z):
        return np.exp(-0.5 * np.sum(z * z, axis=-1))

    return TestFunction(
        "gauss", value,
        grad_x=lambda z: (-z[..., 0] * value(z))[..., None],
        grad_v=lambda z: (-z[..., 1] * value(z))[..., None],
        hess_v=lambda z: ((z[..., 1] ** 2 - 1.0) * value(z))[..., None, None],
    )


@pytest.mark.parametrize("control_variate", [False, True])
def test_mixed_test_set_rows_match_members_alone(control_variate):
    field, measures = hoelder_checkpoints()
    bump = monomial_bump(2, 1)
    # the same bump through its closures instead of the shared pieces
    via_closures = dataclasses.replace(bump, name="x2v1-closures", bump=None)
    mixed = [TestFunction.constant(2.0), bump, gaussian_member(), via_closures]
    table = weak_residual(measures, field, mixed,
                          control_variate=control_variate)
    assert table.phi_names == [phi.name for phi in mixed]
    for row, phi in enumerate(mixed):
        alone = weak_residual(measures, field, [phi],
                              control_variate=control_variate)
        assert np.array_equal(table.residuals[row], alone.residuals[0])
        assert np.array_equal(table.std_errors[row], alone.std_errors[0])
        assert table.integrability == alone.integrability
    assert np.array_equal(table.residuals[1], table.residuals[3])
    assert np.array_equal(table.std_errors[1], table.std_errors[3])
    assert np.any(table.residuals[2] != 0.0)
    bare = TestFunction("raw", value=lambda z: np.zeros(z.shape[:-1]))
    with pytest.raises(ValidationError, match="derivative closures"):
        weak_residual(measures, field, [bump, bare],
                      control_variate=control_variate)


def bits(table):
    return (table.residuals.view(np.uint64).tolist(),
            table.std_errors.view(np.uint64).tolist(),
            float.hex(table.integrability))


@pytest.mark.parametrize("control_variate", [False, True])
def test_weak_residual_is_the_same_bits_for_any_worker_count(
        monkeypatch, control_variate):
    # the members are split into min(KF_WORKERS, members) forked groups;
    # 16 workers on the 12-member dictionary give one member per group
    field, measures = hoelder_checkpoints()
    mixed = [TestFunction.constant(2.0), gaussian_member(), monomial_bump(2, 1)]
    for test_set in (default_dictionary(), mixed):
        runs = []
        for workers in ("1", "2", "5", "16"):
            monkeypatch.setenv("KF_WORKERS", workers)
            calls = {"drift": 0, "sigma": 0}
            table = weak_residual(measures, counting_field(field, calls),
                                  test_set, control_variate=control_variate)
            assert multiprocessing.active_children() == []
            # past one worker every group runs in a forked process
            assert (calls["drift"] == 0) == (workers != "1")
            runs.append(bits(table))
        assert runs[1:] == runs[:-1]


def test_weak_residual_refuses_a_bare_member_before_any_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setenv("KF_WORKERS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    field, measures = hoelder_checkpoints()
    bare = TestFunction("raw", value=lambda z: np.zeros(z.shape[:-1]))
    with pytest.raises(ValidationError, match="derivative closures"):
        weak_residual(measures, field, default_dictionary() + [bare])


def test_dictionary_closures_pinned_bits():
    # SHA-1 of value, grad_x, grad_v and hess_v of every dictionary member
    # on a 41 x 41 grid over [-5, 5]^2 (plateaus, ramps and the outside),
    # recorded from the per-closure formulas before they were shared
    s = np.linspace(-5.0, 5.0, 41)
    z = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    digest = hashlib.sha1()
    for phi in default_dictionary():
        for closure in (phi.value, phi.grad_x, phi.grad_v, phi.hess_v):
            digest.update(closure(z).tobytes())
    assert digest.hexdigest() == "62d4e2ff03d48dbdfd1b7ce75b118175def31f44"


def test_monomial_bump_closures_match_finite_differences():
    ex, ev = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for (i, j), (r_in, r_out) in (((2, 1), (2.5, 4.0)), ((3, 2), (2.5, 4.0)),
                                  ((0, 3), (1.5, 2.5)), ((1, 1), (3.0, 5.0))):
        phi = monomial_bump(i, j, r_in=r_in, r_out=r_out)
        plateau = 0.4 * r_in
        ramp_lo = r_in + 0.3 * (r_out - r_in)
        ramp_hi = r_in + 0.7 * (r_out - r_in)
        # plateau, x on the ramp, v on the ramp, both on the ramp (either
        # sign), and outside the support
        z = np.array([[plateau, -plateau], [ramp_lo, 0.5 * plateau],
                      [-plateau, -ramp_hi], [ramp_hi, ramp_lo],
                      [-ramp_lo, -ramp_hi], [r_out + 0.5, 0.0]])
        h = 1e-5
        fd_x = (phi.value(z + h * ex) - phi.value(z - h * ex)) / (2 * h)
        fd_v = (phi.value(z + h * ev) - phi.value(z - h * ev)) / (2 * h)
        assert np.allclose(phi.grad_x(z)[:, 0], fd_x, rtol=1e-7, atol=1e-7)
        assert np.allclose(phi.grad_v(z)[:, 0], fd_v, rtol=1e-7, atol=1e-7)
        h = 1e-4
        fd_vv = (phi.grad_v(z + h * ev) - phi.grad_v(z - h * ev))[:, 0] / (2 * h)
        assert np.allclose(phi.hess_v(z)[:, 0, 0], fd_vv, rtol=1e-6, atol=1e-6)
        assert np.all(phi.hess_v(z)[2:5, 0, 0] != 0.0)
        assert np.all(phi.value(z[5:]) == 0.0)


def jet_states():
    """States of every row class of the plateau split, for each of the
    dictionary's radius pairs: plateau, ramp, outside, |x| or |v| exactly
    r_in or r_out, signed zeros, subnormals and NaN."""
    rng = np.random.default_rng(5)
    coords = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-200, np.nan]
    for r_in, r_out in ((2.5, 4.0), (1.5, 2.5), (3.0, 5.0)):
        ramp = r_in + (r_out - r_in) * np.array([0.1, 0.5, 0.9])
        coords += [r_in, -r_in, r_out, -r_out, np.nextafter(r_in, 0.0),
                   np.nextafter(r_in, 9.0), r_out + 1.0]
        coords += list(ramp) + list(-ramp)
    coords += list(rng.uniform(-1.4, 1.4, 12))
    grid = np.array([(x, v) for x in coords for v in coords])
    return np.concatenate([grid, rng.uniform(-6.0, 6.0, (400, 2))])


def plateau_mask(z, r_in):
    x, v = z[:, 0], z[:, 1]
    return (np.abs(x) <= r_in) & (np.abs(v) <= r_in) & (x != 0.0) & (v != 0.0)


def test_bump_jet_plateau_path_matches_full_formula_bitwise(monkeypatch,
                                                            serial):
    z = jet_states()
    seen = []
    cut_pieces = fokker_planck._cut_pieces

    def counted(s, r_in, r_out):
        seen.append((r_in, np.asarray(s).size))
        return cut_pieces(s, r_in, r_out)

    monkeypatch.setattr(fokker_planck, "_cut_pieces", counted)
    for phi in default_dictionary():
        r_in = phi.bump[2]
        inside = plateau_mask(z, r_in)
        assert 0 < inside.sum() < len(z)
        seen.clear()
        fast = fokker_planck._bump_jet(fokker_planck._Pieces(z), phi.bump)
        # only the rest rows reach the cutoffs, once per axis
        assert seen == [(r_in, int((~inside).sum()))] * 2
        full = fokker_planck._full_jet(fokker_planck._Pieces(z), phi.bump)
        for a, b in zip(fast, full):
            assert a.shape == (len(z),)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), phi.name
        # a batch of plateau rows alone never reaches the cutoffs
        seen.clear()
        fokker_planck._bump_jet(fokker_planck._Pieces(z[inside]), phi.bump)
        assert seen == []
        # closures on a (rows, cols, 2) batch scatter back into its shape
        block = z[:6 * (len(z) // 6)].reshape(6, -1, 2)
        assert np.array_equal(phi.hess_v(block)[..., 0, 0].view(np.uint64),
                              full[3][:block[..., 0].size].reshape(6, -1)
                              .view(np.uint64))


def test_bump_jet_high_powers_keep_the_full_formula():
    # above the plateau path's power cap a tiny negative coordinate
    # underflows a derivative monomial to -0.0, which the full formula
    # turns into +0.0 through m' + m * (+0.0)
    z = np.array([[-1e-200, 0.5], [0.5, -1e-200], [1.0, 1.0], [3.0, 0.2]])
    for bump in ((4, 1, 2.5, 4.0), (1, 4, 2.5, 4.0), (2, 5, 2.5, 4.0)):
        fast = fokker_planck._bump_jet(fokker_planck._Pieces(z), bump)
        full = fokker_planck._full_jet(fokker_planck._Pieces(z), bump)
        for a, b in zip(fast, full):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    x, v = z[0]
    plateau_gx = (4 * x ** 3) * v
    full_gx = fokker_planck._full_jet(fokker_planck._Pieces(z),
                                      (4, 1, 2.5, 4.0))[1][0]
    assert np.signbit(plateau_gx) and not np.signbit(full_gx)


def test_generator_at_d1_matches_the_reduction_form_bitwise():
    # every combination of signed zeros, infinities, NaN and products that
    # underflow to a signed zero, in all six factors, plus random rows
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                        1e-200, -1e-200, 1.5])
    combos = np.stack(np.meshgrid(*[special] * 6, indexing="ij"),
                      axis=-1).reshape(-1, 6)
    rng = np.random.default_rng(3)
    cols = np.concatenate([combos, rng.standard_normal((1000, 6))])
    v, b, gx, gv = (cols[:, k:k + 1] for k in range(4))
    a, hv = cols[:, 4, None, None], cols[:, 5, None, None]
    for a_rows in (a, np.array([[-0.0]]), np.array([[0.75]])):
        with np.errstate(invalid="ignore"):
            want = (np.sum(v * gx, axis=-1) + np.sum(b * gv, axis=-1)
                    + np.einsum("...ij,...ij->...", a_rows, hv))
            got = fokker_planck._apply_generator(v, b, a_rows, gx, gv, hv)
        assert got.shape == want.shape == (len(cols),)
        nan = np.isnan(want)
        assert np.array_equal(nan, np.isnan(got))
        assert np.array_equal(got[~nan].view(np.uint64),
                              want[~nan].view(np.uint64))


@pytest.mark.parametrize("control_variate", [False, True])
def test_weak_residual_plateau_path_matches_full_formula_bitwise(
        monkeypatch, control_variate):
    field = library_field("hoelder-drift", 1)
    # wide enough that many atoms sit on the ramps and outside the support
    measures = particle_measure(field, gaussian_cloud([0.3, 0.0], 2.0), 3000,
                                0.5, 1.0 / 16, master_seed=9)
    z = np.concatenate([mu.atoms for mu in measures])
    for r_in in (1.5, 2.5, 3.0):
        assert 0.1 < 1.0 - plateau_mask(z, r_in).mean() < 0.9
    fast = weak_residual(measures, field, default_dictionary(),
                         control_variate=control_variate)
    monkeypatch.setattr(fokker_planck, "_plateau_rows",
                        lambda z, r_in: np.zeros(z.shape[:-1], dtype=bool))
    full = weak_residual(measures, field, default_dictionary(),
                         control_variate=control_variate)
    for name in ("residuals", "std_errors"):
        assert np.array_equal(getattr(fast, name).view(np.uint64),
                              getattr(full, name).view(np.uint64))
    assert float.hex(fast.integrability) == float.hex(full.integrability)


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
    return EmpiricalMeasure(0.0, atoms)


def test_distance_self_is_zero():
    mu = random_cloud(0)
    assert measure_distance(mu, mu) == 0.0


def test_sliced_distance_translation_invariant():
    mu, nu = random_cloud(0), random_cloud(1, scale=1.3)
    tau = np.array([0.7, -0.4])
    moved = measure_distance(random_cloud(0, shift=tau),
                             random_cloud(1, scale=1.3, shift=tau))
    assert np.isclose(measure_distance(mu, nu), moved, rtol=1e-12)


def test_sliced_distance_point_pair_bound():
    a = EmpiricalMeasure(0.0, np.array([[0.2, 0.4]]))
    b = EmpiricalMeasure(0.0, np.array([[1.2, -0.3]]))
    d = measure_distance(a, b)
    # each projection contributes |u . (a - b)| <= |a - b|
    assert 0.0 < d <= np.linalg.norm([1.0, -0.7])


def test_distance_validation():
    mu = random_cloud(0)
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


def csv_writer_reference(measures, path):
    """Row-by-row csv.writer form of the atom table; an atom's id is its
    row."""
    d = measures[0].dim
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "atom_id"] + [f"x{i+1}" for i in range(d)]
                        + [f"v{i+1}" for i in range(d)])
        for mu in measures:
            for aid, z in enumerate(mu.atoms):
                writer.writerow([f"{mu.t:.17g}", str(int(aid))]
                                + [f"{c:.17g}" for c in z])


def test_checkpoint_csv_is_the_same_bytes_for_any_worker_count(tmp_path,
                                                                monkeypatch):
    # one forked task per checkpoint, written back in checkpoint order
    _, measures = hoelder_checkpoints()
    written = []
    for workers in ("1", "3"):
        monkeypatch.setenv("KF_WORKERS", workers)
        checkpoints_to_csv(measures, tmp_path / f"atoms-{workers}.csv")
        assert multiprocessing.active_children() == []
        written.append((tmp_path / f"atoms-{workers}.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + 9 * 200


def test_checkpoint_csv_matches_csv_writer_bytes(tmp_path):
    awkward = np.array([
        -0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324,
        1.7976931348623157e308, 0.1, 1.0 / 3.0, -1.0, 1.0,
        2.0 ** 53, 2.0 ** 53 + 2.0, -(2.0 ** 53), 2.0 ** 63, 1e16, 1e17,
        9.999999999999998e16, 123456789.0, -2147483648.0, 4294967296.0,
        0.5, -2.5,
    ])
    one_d = EmpiricalMeasure(0.1, awkward.reshape(-1, 2))
    later = EmpiricalMeasure(1e-300, awkward[::-1].reshape(-1, 2))
    for measures in ([one_d, later],
                     [EmpiricalMeasure(2.0 ** 53, awkward.reshape(-1, 4))]):
        checkpoints_to_csv(measures, tmp_path / "fast.csv")
        csv_writer_reference(measures, tmp_path / "reference.csv")
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

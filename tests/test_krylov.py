"""Occupation estimates: bump families, ratio tables, exponential moments."""

import numpy as np
import pytest

from kinetic_flow import krylov
from kinetic_flow.errors import ValidationError
from kinetic_flow.fields import library_field
from kinetic_flow.integrator import BrownianGrid, evolve
from kinetic_flow.krylov import (
    DEFAULT_WIDTH_PAIRS,
    PhaseBump,
    bump_family,
    experiment_windows,
    khasminskii_mgf,
    krylov_beta,
    krylov_ratio,
    moment_factorial_check,
    occupation_functional,
    window_steps,
)


def test_beta_formula():
    assert krylov_beta(1, 4.0) == 1.0 / 3.0 - 0.25
    assert np.isclose(krylov_beta(1, 4.0), 1.0 / 12.0, rtol=1e-15)
    assert np.isclose(krylov_beta(2, 6.0), 0.2 - 1.0 / 6.0, rtol=1e-15)
    with pytest.raises(ValidationError):
        krylov_beta(1, 3.0)
    with pytest.raises(ValidationError):
        krylov_beta(1, 2.0)


# ---------------------------------------------------------------------------
# bumps


def test_bump_lp_norm_matches_quadrature():
    # the closed form ignores the smooth truncation; for p >= 3 the cut
    # band is relatively invisible
    b = PhaseBump((0.3, -0.2), 0.7, 0.5, amplitude=2.0)
    g = np.linspace(-6.0, 6.0, 2401)
    h = g[1] - g[0]
    X, V = np.meshgrid(g + 0.3, g - 0.2, indexing="ij")
    z = np.stack([X, V], axis=-1)
    for p in (3.0, 4.0):
        quad = (np.sum(b.value(z) ** p) * h * h) ** (1.0 / p)
        assert abs(quad - b.lp_norm(p)) <= 1e-6 * b.lp_norm(p)


def test_bump_spacetime_norm_scaling():
    b = PhaseBump((0.0, 0.0), 0.5, 0.5)
    assert np.isclose(b.spacetime_norm(4.0, 0.0, 1.0), b.lp_norm(4.0),
                      rtol=1e-15)
    assert np.isclose(b.spacetime_norm(4.0, 0.0, 16.0),
                      2.0 * b.lp_norm(4.0), rtol=1e-14)
    with pytest.raises(ValidationError):
        b.spacetime_norm(4.0, 0.5, 0.5)


def test_bump_validation():
    with pytest.raises(ValidationError):
        PhaseBump((0.0, 0.0), -1.0, 0.5)
    with pytest.raises(ValidationError):
        PhaseBump((0.0, 0.0), 0.5, 0.5, amplitude=-1.0)
    with pytest.raises(ValidationError):
        PhaseBump((0.0, 0.0, 0.0), 0.5, 0.5)
    with pytest.raises(ValidationError):
        PhaseBump((0.0, 0.0), 0.5, 0.5).lp_norm(0.0)


def test_bump_family_layout():
    fam = bump_family(20)
    assert len(fam) == 20
    assert fam == bump_family(20)
    # first members probe the anchor at each width scale
    for i, (wx, wv) in enumerate(DEFAULT_WIDTH_PAIRS):
        assert fam[i].center == (0.0, 0.0)
        assert fam[i].x_width == wx and fam[i].v_width == wv
    for b in fam[len(DEFAULT_WIDTH_PAIRS):]:
        assert abs(b.center[0]) <= 1.5 and abs(b.center[1]) <= 2.0
        assert b.center != (0.0, 0.0)
    with pytest.raises(ValidationError):
        bump_family(0)


# ---------------------------------------------------------------------------
# occupation functional


def occupation_trajectory():
    field = library_field("free", 1)
    grid = BrownianGrid(5, 1.0 / 64, 64, 1)
    return evolve(field, np.zeros((64, 2)), grid, scheme="kinetic-exact")


def test_occupation_of_unit_function_is_window_length():
    traj = occupation_trajectory()
    est = occupation_functional(traj, lambda z: np.ones(z.shape[:-1]),
                                0.0, 1.0)
    # trapezoid weights over a full dyadic window sum without rounding
    assert est.value == 1.0
    assert est.std_error == 0.0
    half = occupation_functional(traj, lambda z: np.ones(z.shape[:-1]),
                                 0.25, 0.75)
    assert half.value == 0.5


def test_occupation_window_validation():
    traj = occupation_trajectory()
    one = lambda z: np.ones(z.shape[:-1])  # noqa: E731
    with pytest.raises(ValidationError):
        occupation_functional(traj, one, 0.3, 0.5)   # off-grid start
    with pytest.raises(ValidationError):
        occupation_functional(traj, one, 0.0, 1.5)   # beyond horizon
    with pytest.raises(ValidationError):
        occupation_functional(traj, one, 0.5, 0.5)   # empty window


def test_window_steps_of_the_experiment_windows():
    assert experiment_windows(1.0) == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0),
                                       (0.5, 1.0)]
    # the experiment's ensemble runs to 2T
    steps = [window_steps(w, 1.0 / 64, 2.0) for w in experiment_windows(1.0)]
    assert steps == [(0, 32), (0, 64), (0, 128), (32, 64)]
    # a restarted window's grid starts at its own t0
    assert window_steps((0.5, 1.0), 0.25, 1.0, origin=0.5) == (0, 2)
    for window in ((0.5, 0.5), (0.75, 0.25)):
        with pytest.raises(ValidationError, match="must end after it starts"):
            window_steps(window, 0.25, 1.0)
    with pytest.raises(ValidationError, match="lies outside the grid"):
        window_steps((0.0, 1.25), 0.25, 1.0)
    # T = 0.75 is 3 steps of 0.25, but its half-horizon window is not
    with pytest.raises(ValidationError,
                       match="0.375 is not a whole number of dt = 0.25"):
        for window in experiment_windows(0.75):
            window_steps(window, 0.25, 1.5)


# ---------------------------------------------------------------------------
# ratio table


def ratio_inputs():
    return library_field("hoelder-drift", 1), bump_family(20)


def test_krylov_ratio_table():
    field, bumps = ratio_inputs()
    table = krylov_ratio(field, bumps, 4.0, [(0.0, 0.5)], 256, 1.0,
                         1.0 / 64, master_seed=3)
    assert len(table.ratios) == 20
    assert np.all(np.isfinite(table.ratios))
    assert np.all(table.estimates >= 0.0)
    assert table.fitted_c == table.ratios.max() > 0.0
    assert set(table.window_constants()) == {(0.0, 0.5)}


def test_krylov_ratio_restart_extends_plain():
    field, bumps = ratio_inputs()
    windows = [(0.0, 0.5), (0.5, 1.0)]
    plain = krylov_ratio(field, bumps, 4.0, windows, 256, 1.0, 1.0 / 64,
                         master_seed=3)
    rest = krylov_ratio(field, bumps, 4.0, windows, 256, 1.0, 1.0 / 64,
                        master_seed=3, restart=True)
    assert len(plain.ratios) == 40 and len(rest.ratios) == 60
    # same seed, same ensemble: the non-restarted rows are reproduced
    assert np.array_equal(rest.ratios[:40], plain.ratios)
    assert np.array_equal(rest.estimates[:40], plain.estimates)
    assert all(fid.endswith("|r") for fid in rest.f_ids[40:])
    assert np.all(np.isfinite(rest.ratios))


def test_krylov_ratio_validation():
    field, bumps = ratio_inputs()
    with pytest.raises(ValidationError, match="bump family needs >= 20"):
        krylov_ratio(field, bumps[:5], 4.0, [(0.0, 0.5)], 256, 1.0, 1.0 / 64)
    with pytest.raises(ValidationError, match="need p > 3"):
        krylov_ratio(field, bumps, 2.0, [(0.0, 0.5)], 256, 1.0, 1.0 / 64)
    # d = 1 bumps cannot probe a d = 2 field; refused before simulating
    with pytest.raises(ValidationError, match="bump 0 has dimension 1"):
        krylov_ratio(library_field("hoelder-drift", 2), bumps, 7.0,
                     [(0.0, 0.5)], 256, 1.0, 1.0 / 64)


# ---------------------------------------------------------------------------
# exponential moments


def test_mgf_at_zero_is_unity():
    field, bumps = ratio_inputs()
    report = khasminskii_mgf(field, bumps[0], 0.0, 0.0, 0.5, 256, 1.0,
                             1.0 / 64, fitted_c=0.75, p=4.0, master_seed=3)
    assert np.array_equal(report.empirical, [1.0])
    assert np.array_equal(report.bound, [1.0])
    assert report.passed.dtype == bool and report.all_passed


def test_mgf_validation():
    field, bumps = ratio_inputs()
    with pytest.raises(ValidationError):
        khasminskii_mgf(field, bumps[0], -1.0, 0.0, 0.5, 256, 1.0, 1.0 / 64,
                        fitted_c=0.75, p=4.0)
    with pytest.raises(ValidationError):
        khasminskii_mgf(field, bumps[0], 1.0, 0.0, 0.5, 256, 1.0, 1.0 / 64,
                        fitted_c=0.0, p=4.0)


def test_factorial_ladder():
    field, bumps = ratio_inputs()
    report = moment_factorial_check(field, bumps[0], (1, 2), 0.0, 0.5, 256,
                                    1.0, 1.0 / 64, fitted_c=0.7477, p=4.0,
                                    master_seed=3)
    assert np.array_equal(report.m, [1, 2])
    assert np.all(report.moments > 0.0)
    assert report.all_passed


def test_factorial_ladder_validation():
    field, bumps = ratio_inputs()
    with pytest.raises(ValidationError, match="nonempty subset"):
        moment_factorial_check(field, bumps[0], (1, 7), 0.0, 0.5, 256, 1.0,
                               1.0 / 64, fitted_c=0.75, p=4.0)
    with pytest.raises(ValidationError, match="nonempty subset"):
        moment_factorial_check(field, bumps[0], (), 0.0, 0.5, 256, 1.0,
                               1.0 / 64, fitted_c=0.75, p=4.0)


def off_grid_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(krylov, "evolve", counted)
    return calls


@pytest.mark.parametrize("estimator", ["ratio", "mgf", "factorial"])
def test_off_grid_window_is_refused_before_any_simulation(monkeypatch,
                                                          estimator):
    field, bumps = ratio_inputs()
    calls = off_grid_calls(monkeypatch)
    window = (0.3, 1.0)
    run = {
        "ratio": lambda: krylov_ratio(field, bumps, 4.0, [(0.0, 0.5), window],
                                      20_000, 1.0, 1.0 / 64),
        "mgf": lambda: khasminskii_mgf(field, bumps[0], 1.0, *window, 20_000,
                                       1.0, 1.0 / 64, fitted_c=0.75, p=4.0),
        "factorial": lambda: moment_factorial_check(
            field, bumps[0], (1, 2), *window, 20_000, 1.0, 1.0 / 64,
            fitted_c=0.75, p=4.0),
    }[estimator]
    with pytest.raises(ValidationError, match="0.3 is not a whole number"):
        run()
    assert calls == []


def test_windows_are_checked_on_a_given_trajectory_grid(monkeypatch):
    field, bumps = ratio_inputs()
    traj = occupation_trajectory()           # 64 paths, dt = 1/64 to T = 1
    calls = off_grid_calls(monkeypatch)
    report = khasminskii_mgf(field, bumps[0], 0.0, 0.25, 0.75, 64, 1.0,
                             1.0 / 64, fitted_c=0.75, p=4.0, trajectory=traj)
    assert report.all_passed
    with pytest.raises(ValidationError, match="lies outside the grid"):
        moment_factorial_check(field, bumps[0], (1,), 0.0, 2.0, 64, 1.0,
                               1.0 / 64, fitted_c=0.75, p=4.0,
                               trajectory=traj)
    assert calls == []


class CountedBump:
    """A bump that counts its evaluations."""

    def __init__(self, bump):
        self.bump, self.calls = bump, 0

    def value(self, z):
        self.calls += 1
        return self.bump.value(z)

    def spacetime_norm(self, p, t0, t1):
        return self.bump.spacetime_norm(p, t0, t1)


@pytest.mark.parametrize("estimator", ["mgf", "factorial"])
def test_given_trajectory_must_match_the_grid_and_path_count(estimator):
    # the trapezoid weights use dt, the bound uses the horizon and the
    # report counts num_paths, so a given ensemble must be exactly that
    field, bumps = ratio_inputs()
    traj = occupation_trajectory()           # 64 paths, dt = 1/64 to T = 1
    f = CountedBump(bumps[0])
    run = {
        "mgf": lambda n, T, dt: khasminskii_mgf(
            field, f, 1.0, 0.0, 0.5, n, T, dt, fitted_c=0.75, p=4.0,
            trajectory=traj),
        "factorial": lambda n, T, dt: moment_factorial_check(
            field, f, (1, 2), 0.0, 0.5, n, T, dt, fitted_c=0.75, p=4.0,
            trajectory=traj),
    }[estimator]
    for n, T, dt in ((64, 1.0, 1.0 / 32), (64, 1.0, 1.0 / 128),
                     (64, 2.0, 1.0 / 64), (50, 1.0, 1.0 / 64)):
        with pytest.raises(ValidationError):
            run(n, T, dt)
    assert f.calls == 0
    run(64, 1.0, 1.0 / 64)
    assert f.calls == 1

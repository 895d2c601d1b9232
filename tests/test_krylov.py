"""Occupation estimates: bump families, ratio tables, exponential moments."""

import numpy as np
import pytest

from kinetic_flow.errors import ValidationError
from kinetic_flow.fields import library_field
from kinetic_flow.integrator import BrownianGrid, evolve
from kinetic_flow.krylov import (
    DEFAULT_WIDTH_PAIRS,
    PhaseBump,
    bump_family,
    khasminskii_mgf,
    krylov_beta,
    krylov_ratio,
    moment_factorial_check,
    occupation_functional,
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

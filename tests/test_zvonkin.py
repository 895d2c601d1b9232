"""Resolvent PDE layer and the drift-removing phase-space transform."""

import concurrent.futures
import tracemalloc

import numpy as np
import pytest

from kinetic_flow.errors import (
    AccuracyError,
    LambdaTooSmallError,
    ValidationError,
)
from kinetic_flow.fields import library_field, mollified
from kinetic_flow import integrator, zvonkin
from kinetic_flow.integrator import BrownianGrid
from kinetic_flow.zvonkin import (
    SpaceTimeField,
    duhamel_resolvent,
    pde_defect,
    picard_solve,
    search_lambda,
    transformed_sde_residual,
    zvonkin_transform,
)


def constant_source(c, n=64, slices=16, horizon=1.0, box=6.0):
    times = np.linspace(0.0, horizon, slices + 1)
    vals = np.full((slices + 1, n, n, 1), float(c))
    return SpaceTimeField(times, vals, box, np.eye(1))


def discrete_resolvent_profile(c, lam, times):
    """Trapezoid-in-s of c e^{lam(t-s)}: the solver's own quadrature,
    derived independently.  Transitions act as the identity on constants."""
    step = times[1] - times[0]
    out = np.empty(times.size)
    for i, t in enumerate(times):
        s = times[i:]
        if s.size == 1:
            out[i] = 0.0
            continue
        w = np.full(s.size, step)
        w[0] = w[-1] = 0.5 * step
        out[i] = c * np.sum(w * np.exp(lam * (t - s)))
    return out


# ---------------------------------------------------------------------------
# resolvent


def test_duhamel_constant_source_closed_form():
    # constants are exactly periodic, so the seam guard is the only
    # obstruction and is deliberately disabled here
    lam = 3.0
    src = constant_source(2.0)
    u = duhamel_resolvent(src, lam, tail_tol=1.0)
    prof = discrete_resolvent_profile(2.0, lam, src.times)
    assert np.abs(u.values[..., 0] - prof[:, None, None]).max() <= 1e-13
    # continuum closed form to quadrature accuracy
    cont = 2.0 * (1.0 - np.exp(-lam * (1.0 - src.times))) / lam
    assert np.abs(u.values[..., 0] - cont[:, None, None]).max() <= 5e-3
    assert np.all(u.values[-1] == 0.0)      # terminal slice


def gaussian_source(n=64, slices=16, box=6.0):
    times = np.linspace(0.0, 1.0, slices + 1)
    ax = np.linspace(-box, box, n, endpoint=False)
    X, V = np.meshgrid(ax, ax, indexing="ij")
    prof = np.exp(-2.0 * (X**2 + V**2))[None, :, :, None]
    vals = prof * np.linspace(1.0, 0.3, slices + 1)[:, None, None, None]
    return SpaceTimeField(times, vals, box, np.eye(1))


def test_duhamel_recursive_matches_direct():
    src = gaussian_source()
    ur = duhamel_resolvent(src, 2.0, tail_tol=1.0)
    ud = duhamel_resolvent(src, 2.0, method="direct", tail_tol=1.0)
    assert np.abs(ur.values - ud.values).max() <= 1e-5


def test_duhamel_linearity_and_lambda_decay():
    src = gaussian_source()
    u1 = duhamel_resolvent(src, 1.0, tail_tol=1.0)
    double = SpaceTimeField(src.times, 2.0 * src.values, src.box_half_width,
                            np.eye(1))
    u2 = duhamel_resolvent(double, 1.0, tail_tol=1.0)
    assert np.abs(u2.values - 2.0 * u1.values).max() <= 1e-12
    u4 = duhamel_resolvent(src, 4.0, tail_tol=1.0)
    assert np.abs(u4.values).max() < np.abs(u1.values).max()


def test_duhamel_pinned_values():
    # bit-for-bit values of the recursion; any reordering of its
    # arithmetic shows up here first
    u = duhamel_resolvent(gaussian_source(), 2.0, tail_tol=1.0).values
    got = (float(u[0, 32, 32, 0]), float(u[8, 30, 36, 0]), float(u.sum()),
           float((u * u).sum()))
    assert got == (0.20306933125792923, 0.0513193428156937,
                   122.65863407014453, 8.40060347995866)


def test_resolvent_and_grad_v_independent_of_workers(monkeypatch):
    # KF_WORKERS counts forked workers only: the resolvent and its
    # velocity gradient run in the calling process, and their bits must
    # not depend on the count
    results = []
    for workers in ("1", "2"):
        monkeypatch.setenv("KF_WORKERS", workers)
        u = duhamel_resolvent(gaussian_source(), 2.0, tail_tol=1.0)
        results.append((u.values, u.grad_v()))
    (serial_u, serial_gv), (pooled_u, pooled_gv) = results
    assert np.array_equal(serial_u, pooled_u)
    assert np.array_equal(serial_gv, pooled_gv)
    assert float(serial_u.sum()) == 122.65863407014453


def test_duhamel_seam_guard_rejects_boundary_mass():
    with pytest.raises(AccuracyError):
        duhamel_resolvent(constant_source(2.0), 3.0)


def test_duhamel_seam_guard_checks_every_slice():
    # the source vanishes except for mass at the seam on one middle slice,
    # so the first carried slices are zero and only a guard run on every
    # slice sees it
    src = gaussian_source(n=32, slices=8)
    vals = np.zeros_like(src.values)
    ax = np.linspace(-6.0, 6.0, 32, endpoint=False)
    X, V = np.meshgrid(ax, ax, indexing="ij")
    vals[4, ..., 0] = np.exp(-4.0 * ((X - 5.5) ** 2 + V**2))
    seam = SpaceTimeField(src.times, vals, src.box_half_width, np.eye(1))
    with pytest.raises(AccuracyError):
        duhamel_resolvent(seam, 2.0)
    duhamel_resolvent(seam, 2.0, tail_tol=1.0)


def test_duhamel_validation():
    src = gaussian_source(n=32, slices=4)
    with pytest.raises(ValidationError):
        duhamel_resolvent(src, -1.0)
    with pytest.raises(ValidationError):
        duhamel_resolvent(src, 1.0, method="simpson")


# ---------------------------------------------------------------------------
# picard fixed point


def test_picard_zero_drift_gives_zero():
    def zero_drift(t, z):
        z = np.asarray(z, dtype=float)
        return np.zeros(z.shape[:-1] + (1,))

    res = picard_solve(zero_drift, 2.0, 1.0, 0.5, box_half_width=6.0,
                       points_per_axis=32, num_slices=8)
    assert np.abs(res.u.values).max() == 0.0


def test_picard_constant_drift_closed_form():
    def const_drift(t, z):
        z = np.asarray(z, dtype=float)
        return np.full(z.shape[:-1] + (1,), 0.7)

    lam = 3.0
    res = picard_solve(const_drift, lam, 1.0, 0.5, box_half_width=6.0,
                       points_per_axis=64, num_slices=16, tail_tol=1.0)
    prof = discrete_resolvent_profile(0.7, lam, res.u.times)
    assert np.abs(res.u.values[..., 0] - prof[:, None, None]).max() <= 1e-13
    # gradient-free source: the first sweep is already the fixed point
    assert res.ratios.size == 0 or max(res.ratios) <= 1e-12


def test_picard_solve_peak_memory(serial):
    # a sweep holds u, its velocity gradient, the source, the resolvent's
    # mixed-layout spectrum and the new u (about 6 copies of u at 128
    # slices of 128^2, lam = 2); 7.5 copies leave room for one more
    # full-size array alive at the peak, not two
    field = library_field("hoelder-drift", 1)
    tracemalloc.start()
    try:
        res = picard_solve(field.drift, 2.0, 1.0, field.generator_a(),
                           box_half_width=8.0, points_per_axis=128,
                           num_slices=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * res.u.values.nbytes


_SEARCH_CACHE = {}


def searched_state():
    """One shared search result for the transform tests below."""
    if "res" not in _SEARCH_CACHE:
        field = mollified(library_field("hoelder-drift", 1), 4)
        res = search_lambda(field.drift, 1.0, 0.5, box_half_width=8.0,
                            points_per_axis=64, num_slices=32)
        _SEARCH_CACHE["res"] = (field, res, zvonkin_transform(res.u, np.eye(1)))
    return _SEARCH_CACHE["res"]


def test_picard_resolvent_sup_bound():
    # ||u||_inf <= ||b||_inf / lam, uniformly in the iteration
    _, res, _ = searched_state()
    b_sup = 4.0 ** (2.0 / 3.0)       # library profile maximum
    assert np.abs(res.u.values).max() <= b_sup / res.u.lam


def test_search_lambda_contraction_and_gradient():
    _, res, transform = searched_state()
    assert max(res.ratios) <= 0.5
    assert transform.gradient_sup <= 0.5
    # searched rate is lam_init times a power of two
    lam = res.u.lam
    assert lam >= 1.0
    assert float(np.round(np.log2(lam))) == np.log2(lam)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_lambda_unreachable_target(monkeypatch, workers):
    monkeypatch.setenv("KF_WORKERS", workers)
    field = mollified(library_field("hoelder-drift", 1), 4)
    with pytest.raises(LambdaTooSmallError,
                       match="^gradient target 1e-09 not reached up to lam=4$"):
        search_lambda(field.drift, 1.0, 0.5, box_half_width=8.0,
                      points_per_axis=64, num_slices=16,
                      gradient_target=1e-9, max_doublings=2)


def test_search_lambda_refuses_a_bad_search_up_front(monkeypatch):
    def untouched(*args, **kwargs):
        raise AssertionError("picard_solve ran")

    monkeypatch.setattr(zvonkin, "picard_solve", untouched)
    drift = library_field("hoelder-drift", 1).drift
    for bad in ({"max_doublings": 0}, {"max_doublings": -3},
                {"gradient_target": 0.0}, {"gradient_target": -0.5},
                {"gradient_target": float("nan")}):
        with pytest.raises(ValidationError):
            search_lambda(drift, 1.0, 0.5, box_half_width=8.0,
                          points_per_axis=64, num_slices=16, **bad)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def search_across_workers(monkeypatch, field, n, slices, **kwargs):
    """search_lambda under KF_WORKERS 1 (no pool may start) and 2."""
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("KF_WORKERS", workers)
        with monkeypatch.context() as m:
            if workers == "1":
                m.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
            runs.append(search_lambda(field.drift, 1.0, 0.5, box_half_width=8.0,
                                      points_per_axis=n, num_slices=slices,
                                      **kwargs))
    serial, pooled = runs
    assert pooled.u.lam == serial.u.lam
    assert ([float(x).hex() for x in pooled.increments]
            == [float(x).hex() for x in serial.increments])
    assert pooled.u.values.tobytes() == serial.u.values.tobytes()
    assert not pooled.u.values.flags.writeable
    assert pooled.lambda_tried == serial.lambda_tried
    return serial


def test_search_lambda_seam_ladder_independent_of_workers(monkeypatch):
    # criterion 5's fast search: six lam rejected by the seam guard
    res = search_across_workers(
        monkeypatch, mollified(library_field("hoelder-drift", 1), 8), 64, 64)
    assert res.u.lam == 64.0
    assert res.lambda_tried == tuple(
        (2.0 ** k, "seam", None) for k in range(6)) + ((64.0, "accepted", None),)


def test_search_lambda_gradient_rejection_independent_of_workers(monkeypatch):
    # lam = 32 contracts but leaves sup |grad_v u| = 0.039 above the target;
    # under two workers lam = 128 runs speculatively and is not recorded
    res = search_across_workers(
        monkeypatch, mollified(library_field("hoelder-drift", 1), 4), 64, 32,
        lam_init=16.0, gradient_target=0.03)
    assert res.u.lam == 64.0
    (lam0, why0, sup0), (lam1, why1, sup1), last = res.lambda_tried
    assert (lam0, why0, sup0) == (16.0, "seam", None)
    assert (lam1, why1) == (32.0, "gradient") and 0.03 < sup1 < 0.05
    assert last == (64.0, "accepted", None)


def picard_failing_at(fail_lam, error):
    """picard_solve that raises ``error`` at lam = fail_lam only."""
    def patched(drift, lam, *args, **kwargs):
        if lam == fail_lam:
            raise error
        return picard_solve(drift, lam, *args, **kwargs)

    return patched


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_lambda_reads_the_ladder_in_order(monkeypatch, workers):
    monkeypatch.setenv("KF_WORKERS", workers)
    field = mollified(library_field("hoelder-drift", 1), 4)

    def search(lam_init):
        return search_lambda(field.drift, 1.0, 0.5, box_half_width=8.0,
                             points_per_axis=64, num_slices=32,
                             lam_init=lam_init)

    # lam = 32 is accepted; an error at the speculative lam = 64 is ignored
    monkeypatch.setattr(zvonkin, "picard_solve", picard_failing_at(
        64.0, ValidationError("speculative failure")))
    res = search(32.0)
    assert res.u.lam == 32.0
    assert res.lambda_tried == ((32.0, "accepted", None),)
    # an error at a lam the serial loop reaches is raised as it was
    monkeypatch.setattr(zvonkin, "picard_solve", picard_failing_at(
        16.0, ValidationError("failure at 16")))
    with pytest.raises(ValidationError, match="^failure at 16$"):
        search(16.0)
    # a contraction failure advances the ladder and records its ratio
    monkeypatch.setattr(zvonkin, "picard_solve", picard_failing_at(
        16.0, LambdaTooSmallError("no contraction", observed_ratio=0.75)))
    res = search(16.0)
    assert res.lambda_tried == ((16.0, "contraction", 0.75),
                                (32.0, "accepted", None))


# ---------------------------------------------------------------------------
# transform and residual


def test_transform_sandwich_under_gradient_bound():
    _, _, transform = searched_state()
    rng = np.random.default_rng(77)
    ratios = transform.velocity_ratio_sample(rng, 2000)
    assert ratios.min() >= 0.5
    assert ratios.max() <= 1.5


def test_residual_requires_matching_grids():
    field, _, transform = searched_state()
    # 48 steps cannot align with 32 slices over the unit horizon, and 32
    # steps of a dt too long by a factor 1 + 5e-6 end 5e-6 past the last slice
    for bad in (BrownianGrid(3, 1.0 / 48, 48, 1),
                BrownianGrid(3, (1.0 + 5e-6) / 32, 32, 1)):
        with pytest.raises(ValidationError):
            transformed_sde_residual(transform, field, np.zeros(2), bad, 64)


def test_residual_checkpoints_share_the_grid_tolerance():
    # GRID_TOL * max(1, T), as for horizons and particle checkpoints: a
    # checkpoint 1e-8 off the 32-slice grid is refused, 1e-10 off accepted
    field, _, transform = searched_state()
    grid = BrownianGrid(3, 1.0 / 32, 32, 1)
    with pytest.raises(ValidationError, match="not a whole number"):
        transformed_sde_residual(transform, field, np.zeros(2), grid, 8,
                                 checkpoints=(0.5 + 1e-8, 1.0))
    # a repeated checkpoint would repeat its row
    with pytest.raises(ValidationError, match="strictly increasing"):
        transformed_sde_residual(transform, field, np.zeros(2), grid, 8,
                                 checkpoints=(0.5, 0.5, 1.0))
    rep = transformed_sde_residual(transform, field, np.zeros(2), grid, 8,
                                   checkpoints=(0.5 + 1e-10, 1.0))
    assert rep.mean.shape[0] == 2


# float.hex of (mean, std_error) per checkpoint and num_excluded, recorded
# before the residual streamed its paths through integrator.walk
RESIDUAL_PINS = {
    "kinetic-exact": (
        ["-0x1.5e6ff762dea71p-7", "-0x1.51a9b5a94c7dcp-6",
         "-0x1.f2a3fc34e9a6fp-6", "-0x1.3f2fae90fd43bp-5"],
        ["0x1.b5ba362416e7ep-16", "0x1.b49882c19443ep-14",
         "0x1.c952963be29abp-13", "0x1.69f948b3348e8p-12"],
        [0, 0, 0, 0]),
    "em-coarsened": (
        ["-0x1.03397d5c152acp-17", "-0x1.2aac9411ee666p-18"],
        ["0x1.952ab448f9322p-23", "0x1.2fa101ee25632p-21"],
        [4084, 4380]),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(RESIDUAL_PINS))
def test_residual_pinned_values(case, workers, monkeypatch):
    # each case spans two WORK_CHUNK chunks, one worker task each
    monkeypatch.setenv("KF_WORKERS", workers)
    field, _, transform = searched_state()
    if case == "kinetic-exact":
        rep = transformed_sde_residual(
            transform, field, np.array([0.3, 0.0]),
            BrownianGrid(3, 1.0 / 32, 32, 1), 5000, scheme="kinetic-exact")
    else:
        # starts near the seam, so most paths are excluded on the way
        rep = transformed_sde_residual(
            transform, field, np.array([6.5, 1.5]),
            BrownianGrid(3, 1.0 / 64, 64, 1).coarsened(2), 4500,
            checkpoints=(0.5, 1.0))
    mean, se, excluded = RESIDUAL_PINS[case]
    assert [float(x).hex() for x in rep.mean.ravel()] == mean
    assert [float(x).hex() for x in rep.std_error.ravel()] == se
    assert rep.num_excluded.tolist() == excluded


def test_residual_draws_each_chunk_noise_once(monkeypatch, serial):
    field, _, transform = searched_state()
    calls = []
    normals = BrownianGrid.normals

    def counted(self, lo, hi):
        calls.append((lo, hi))
        return normals(self, lo, hi)

    monkeypatch.setattr(BrownianGrid, "normals", counted)
    monkeypatch.setattr(integrator, "WORK_CHUNK", 16)
    transformed_sde_residual(transform, field, np.zeros(2),
                             BrownianGrid(3, 1.0 / 32, 32, 1), 40)
    assert calls == [(0, 16), (16, 32), (32, 40)]


def test_pde_defect_of_constant_solution():
    # for the constant-drift fixed point the source is the constant itself
    # (grad_v u = 0), and the continuum defect cancels exactly; what is
    # left is the O(step^2) mismatch between the trapezoid profile and the
    # centered time derivative
    def const_drift(t, z):
        z = np.asarray(z, dtype=float)
        return np.full(z.shape[:-1] + (1,), 0.7)

    lam, slices = 3.0, 32
    res = picard_solve(const_drift, lam, 1.0, 0.5, box_half_width=6.0,
                       points_per_axis=32, num_slices=slices, tail_tol=1.0)
    source = SpaceTimeField(res.u.times,
                            np.full_like(res.u.values, 0.7),
                            res.u.box_half_width, np.eye(1) * 0.5)
    defect = pde_defect(res.u, source)
    assert np.all(np.isfinite(defect))
    assert np.abs(defect).max() <= 10.0 * lam**2 * 0.7 / slices**2


@pytest.mark.parametrize("dim", [1, 2])
def test_in_domain_ands_every_axis_test(dim):
    # the per-axis tests ANDed give np.all's answer, on the margin, NaN and
    # inf rows included
    u = SpaceTimeField.zeros(2, 0.5, 6.0, 8, dim, 0.5 * np.eye(dim))
    transform = zvonkin_transform(u, np.eye(dim))
    lim = u.box_half_width - zvonkin.SEAM_MARGIN_CELLS * u.spacing
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1.2 * lim, 1.2 * lim, size=(3, 400, 2 * dim))
    pts[0, :40] = rng.choice([lim, -lim, np.nextafter(lim, np.inf), 0.0,
                              np.nan, np.inf, -np.inf], size=(40, 2 * dim))
    inside = transform.in_domain(pts)
    assert inside.dtype == bool and inside.shape == (3, 400)
    assert np.array_equal(inside, np.all(np.abs(pts) <= lim, axis=-1))
    assert inside.any() and not inside.all()

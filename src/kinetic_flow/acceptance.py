"""Seventeen-point verification battery for the whole package.

Every criterion is a deterministic, seeded check of one quantitative
property the library is supposed to deliver: exact kernel statistics,
semigroup consistency, resolvent contraction, flow regularity,
occupation bounds, measure-level consistency, and artifact determinism.
The ``fast`` suite caps sample counts and ladder lengths; thresholds are
identical in both suites.  Results are returned as `CriterionResult`
rows and summarized in ``acceptance.csv``.
"""

import math
import os
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import parse_config_text
from .errors import ValidationError
from .fields import library_field, mollified
from .flow import (
    GRONWALL_REFERENCE_C,
    convergence_study,
    gronwall_corpus,
    homeomorphism_check,
    phase_grid,
    stochastic_gronwall_check,
    two_point_moment,
    weak_gradient_moment,
)
from .fokker_planck import (
    exact_measure_constant,
    gaussian_cloud,
    measure_distance,
    particle_measure,
    point_mass,
    residual_refinement_study,
    two_sample_floor,
)
from .grids import GridFunction
from .integrator import BrownianGrid, evolve
from .kernel import (
    anisotropic_smoothing_probe,
    apply_semigroup,
    gradient_scaling_probe,
    kernel_sample,
)
from .krylov import (
    bump_family,
    khasminskii_mgf,
    krylov_ratio,
    moment_factorial_check,
)
from .parallel import ENV_VAR
from .runner import run_experiment, write_rows
from .spaces import lipschitz_via_maximal_check, maximal_function
from .zvonkin import (
    picard_solve,
    search_lambda,
    transformed_sde_residual,
    zvonkin_transform,
)

# corpus-level reference constants, frozen from a 50-sample calibration run
# with ~1.5x headroom (measured maxima: 0.745, 1.16, 1.04)
LIPSCHITZ_REFERENCE_C = 1.2
MAXIMAL_OPNORM_REFERENCE = {2.0: 1.75, 4.0: 1.6}

_A_HALF = 0.5          # generator coefficient for sigma = I


@dataclass(frozen=True)
class CriterionResult:
    """One battery row; ``passed`` is authoritative, the rest is context."""

    index: int
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# 1-4: kernel layer


def _kernel_covariance(fast):
    n = 20_000 if fast else 100_000
    rng = np.random.default_rng(2025)
    samples = kernel_sample(np.zeros(2), 0.0, 1.0, _A_HALF, rng, n)
    exact = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    c_hat = np.cov(samples.T)
    # Var of a sample covariance entry for a Gaussian vector
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / n)
    worst = float(np.max(np.abs(c_hat - exact) / (3.0 * se)))
    detail = ("entries " + ", ".join(f"{v:.5f}" for v in c_hat.ravel())
              + f"; n={n}")
    return worst <= 1.0, worst, 1.0, detail


def _composition_corpus(n):
    rng = np.random.default_rng(7)
    fns = []
    for k in range(5):
        cx, cv = rng.uniform(-0.6, 0.6, size=2)
        wx, wv = rng.uniform(0.6, 0.9, size=2)
        amp = rng.uniform(0.5, 2.0)
        if k == 4:
            def fn(x, v, cx=cx, cv=cv, wx=wx, wv=wv, amp=amp):
                return (amp * np.exp(-((x - cx) / wx) ** 2
                                     - ((v - cv) / wv) ** 2)
                        * np.cos(2.0 * x + v))
        else:
            def fn(x, v, cx=cx, cv=cv, wx=wx, wv=wv, amp=amp):
                return amp * np.exp(-((x - cx) / wx) ** 2
                                    - ((v - cv) / wv) ** 2)
        fns.append(GridFunction.from_callable(fn, 14.0, n, ("x", "v")))
    return fns


def _semigroup_composition(fast):
    # resolution stays at 128: the corpus widths need ~3 points per sigma
    # for the seam-mass guard to see a clean field
    corpus = _composition_corpus(128)
    if fast:
        corpus = corpus[:3] + corpus[-1:]
    worst = 0.0
    for f in corpus:
        for method in ("spectral", "hermite"):
            one = apply_semigroup(f, 0.0, 1.0, _A_HALF, method=method)
            half = apply_semigroup(f, 0.0, 0.5, _A_HALF, method=method)
            two = apply_semigroup(half, 0.5, 1.0, _A_HALF, method=method)
            worst = max(worst, float(np.max(np.abs(one.values - two.values))))
    return worst <= 1e-6, worst, 1e-6, f"{len(corpus)} functions, 2 backends"


def _gradient_scaling(fast):
    ladder = np.geomspace(1e-3, 1e-1, 5 if fast else 7)
    devs = []
    for (k, m), target in (((1, 0), -1.5), ((0, 1), -0.5)):
        slope, _ = gradient_scaling_probe(_A_HALF, k, m, ladder)
        devs.append(abs(slope - target))
    worst = float(max(devs))
    detail = f"deviations {devs[0]:.3f}, {devs[1]:.3f}"
    return worst <= 0.15, worst, 0.15, detail


def _anisotropic_smoothing(fast):
    ladder = np.geomspace(1e-3, 1e-1, 5 if fast else 7)
    spreads = []
    for alpha in (1.0 / 3.0, 2.0 / 3.0):
        products = np.asarray(anisotropic_smoothing_probe(_A_HALF, alpha,
                                                          ladder))
        spreads.append(float(products.max() / products.min()))
    worst = float(max(spreads))
    detail = f"spreads {spreads[0]:.3f}, {spreads[1]:.3f}"
    return worst <= 2.0, worst, 2.0, detail


# ---------------------------------------------------------------------------
# 5-7: resolvent transform


@lru_cache(maxsize=None)
def _transform_state(fast):
    field = mollified(library_field("hoelder-drift", 1), 8)
    n = 64 if fast else 128
    res = search_lambda(field.drift, 1.0, _A_HALF, box_half_width=8.0,
                        points_per_axis=n, num_slices=n)
    return field, res, zvonkin_transform(res.u, np.eye(1))


def _picard_contraction(fast):
    _, res, transform = _transform_state(fast)
    ratios = np.asarray(res.ratios)
    worst = float(ratios.max())
    grad = transform.gradient_sup
    passed = worst <= 0.5 and grad <= 0.5
    detail = (f"lam={res.u.lam:g}, {res.num_iterations} iterations, "
              f"sup|grad_v u|={grad:.3f}")
    return passed, worst, 0.5, detail


def _velocity_sandwich(fast):
    _, _, transform = _transform_state(fast)
    rng = np.random.default_rng(77)
    ratios = transform.velocity_ratio_sample(rng, 2000 if fast else 10_000)
    violations = int(np.sum((ratios < 0.5) | (ratios > 1.5)))
    detail = f"ratio range [{ratios.min():.3f}, {ratios.max():.3f}]"
    return violations == 0, float(violations), 0.0, detail


def _transformed_residual(fast):
    # low drift amplitude: the zero test is gated at 3 SE and the scheme's
    # own O(dt) weak error at the pinned grid grows with kappa faster than
    # the residual's standard error does
    field = mollified(library_field("hoelder-drift", 1, kappa=0.05), 4)
    z0 = np.array([0.3, 0.0])

    # 128 points per axis: the cubic interpolation bias of the shift
    # along paths scales like h^4 and must sit well under the Monte Carlo
    # standard error of the zero test
    res0 = search_lambda(field.drift, 1.0, _A_HALF, box_half_width=8.0,
                         points_per_axis=128, num_slices=32)
    lam = res0.u.lam

    def transform_for(steps):
        if steps == 32:
            res = res0
        else:
            res = picard_solve(field.drift, lam, 1.0, _A_HALF,
                               box_half_width=8.0, points_per_axis=128,
                               num_slices=steps)
        return zvonkin_transform(res.u, np.eye(1))

    # zero test at the finest grid: exact velocity-noise scheme plus
    # trapezoid quadrature leaves no O(dt) term, so the mean must vanish
    steps0 = 1024
    grid0 = BrownianGrid(3, 1.0 / steps0, steps0, 1)
    rep0 = transformed_sde_residual(
        transform_for(steps0), field, z0, grid0, 2500 if fast else 10_000,
        checkpoints=(1.0,), scheme="kinetic-exact")
    zscore = float(abs(rep0.mean[0, 0]) / rep0.std_error[0, 0])

    # slope ladder: Euler steps under one coarsened noise realization
    fine_steps = 512
    master = BrownianGrid(3, 1.0 / fine_steps, fine_steps, 1)
    rung_steps = (32, 64, 128) if fast else (32, 64, 128, 256, 512)
    n_paths = 2048 if fast else 8192
    abs_res = []
    for steps in rung_steps:
        rep = transformed_sde_residual(
            transform_for(steps), field, z0,
            master.coarsened(fine_steps // steps), n_paths,
            checkpoints=(1.0,), scheme="em")
        abs_res.append(abs(float(rep.mean[0, 0])))
    slope = float(np.polyfit(np.log2(np.asarray(rung_steps, dtype=float)),
                             np.log2(np.asarray(abs_res)), 1)[0])
    passed = zscore <= 3.0 and slope <= -0.5
    detail = f"zero test {zscore:.2f} SE; |R| ladder slope {slope:.2f}"
    return passed, slope, -0.5, detail


# ---------------------------------------------------------------------------
# 8-11: flow regularity


def _strong_convergence(fast):
    ladder = (4, 8, 16, 32, 64) if fast else (4, 8, 16, 32, 64, 128, 256)
    n_paths = 512 if fast else 2048
    rough = convergence_study(library_field("hoelder-drift", 1), ladder,
                              12.0, n_paths, 1.0, 1.0 / 128, 12.0,
                              z0=np.zeros(2), master_seed=17)
    spread = rough.ratio_spread()
    smooth = convergence_study(library_field("constant-sigma-smooth-b", 1),
                               ladder, 12.0, n_paths, 1.0, 1.0 / 128, 12.0,
                               z0=np.zeros(2), master_seed=17)
    slope = smooth.slope()
    passed = spread <= 4.0 and slope <= -2.0 / 3.0
    detail = (f"rough-ratio spread {spread:.3f}, smooth slope {slope:.3f}, "
              f"dt_controlled={rough.dt_controlled}")
    return passed, spread, 4.0, detail


def _two_point_stability(fast):
    field = library_field("hoelder-drift", 1)
    z = np.array([0.3, 0.0])
    n_paths = 2000 if fast else 10_000
    partners = [z + np.array([delta, 0.0])
                for delta in (1e-1, 1e-2, 1e-3, 1e-4)]
    vals = [est.value for est in two_point_moment(
        field, z, partners, 1.0, n_paths, 1.0, 1.0 / 128, master_seed=61)]
    spread = float(max(vals) / min(vals))
    neg, = two_point_moment(field, z, [z + np.array([1e-2, 0.0])], -1.0,
                            n_paths, 1.0, 1.0 / 128, master_seed=61)
    passed = spread <= 3.0 and math.isfinite(neg.value)
    detail = f"q=-1 ratio {neg.value:.3f} +- {neg.std_error:.3f}"
    return passed, spread, 3.0, detail


def _weak_gradient_moments(fast):
    free, = weak_gradient_moment(library_field("free", 1),
                                 np.array([0.3, 0.0]), 1e-3, [2.0], 1000, 1.0,
                                 1.0 / 64, master_seed=5)
    free_err = abs(free.value - 3.0)   # sup_t ||J||_F^2 = 2 + T^2
    field = library_field("hoelder-drift", 1)
    n_paths = 1024 if fast else 4096
    # one walk per delta serves both orders, q = 2 and q = 8
    per_delta = [weak_gradient_moment(field, np.array([0.3, 0.0]), delta,
                                      [2.0, 8.0], n_paths, 1.0, 1.0 / 128,
                                      master_seed=67)
                 for delta in (3e-2, 1e-2, 3e-3)]
    vals = [[est.value for est in per_q] for per_q in zip(*per_delta)]
    finite = all(math.isfinite(v) for per_q in vals for v in per_q)
    stabilities = [max(per_q) / min(per_q) for per_q in vals]
    worst = float(max(stabilities))
    passed = free_err <= 1e-12 and finite and worst <= 1.5
    detail = (f"free-field error {free_err:.2e}; stability "
              f"q=2: {stabilities[0]:.3f}, q=8: {stabilities[1]:.3f}")
    return passed, worst, 1.5, detail


def _homeomorphism(fast):
    field = library_field("hoelder-drift", 1)
    n_side, replicas = (8, 8) if fast else (16, 32)
    points, shape = phase_grid(1.0, 1.0, n_side, n_side)
    report = homeomorphism_check(field, points, replicas, 1.0, 1.0 / 64,
                                 master_seed=11, grid_shape=shape)
    failures = int(report.failures.sum())
    min_ratio = float(report.min_ratio.min())
    passed = failures == 0 and min_ratio > 0.0
    detail = f"{failures} ordering failures over {replicas} replicas"
    return passed, min_ratio, 0.0, detail


# ---------------------------------------------------------------------------
# 12-13: occupation bounds


@lru_cache(maxsize=None)
def _krylov_state(fast):
    field = library_field("hoelder-drift", 1)
    bumps = bump_family()
    n_paths = 1024 if fast else 4096
    dt = 1.0 / 128 if fast else 1.0 / 512
    windows = ((0.0, 1.0), (0.0, 0.25), (0.0, 0.0625))
    table = krylov_ratio(field, bumps, 7.0, windows, n_paths, 1.0, dt,
                         master_seed=23)
    return field, bumps, table, n_paths, dt


def _occupation_ratios(fast):
    _, _, table, _, _ = _krylov_state(fast)
    stability = table.window_stability()
    finite = bool(np.all(np.isfinite(table.ratios)))
    per_window = ", ".join(f"{t1:g}: {c:.3f}"
                           for (_, t1), c in table.window_constants().items())
    passed = finite and table.fitted_c > 0.0 and stability <= 2.0
    detail = f"fitted C {table.fitted_c:.3f}; per-window {per_window}"
    return passed, stability, 2.0, detail


def _exponential_moments(fast):
    field, bumps, table, n_paths, dt = _krylov_state(fast)
    grid = BrownianGrid.for_horizon(29, 1.0, dt, 1)
    traj = evolve(field, np.zeros((n_paths, 2)), grid, scheme="em")
    fitted = table.fitted_c
    worst = 0.0
    passed = True
    for f in bumps:
        mgf = khasminskii_mgf(traj, f, (1.0, 2.0, 4.0), 0.0, 1.0,
                              fitted_c=fitted, p=7.0)
        passed &= mgf.all_passed
        ok = np.isfinite(mgf.bound)
        if np.any(ok):
            worst = max(worst, float(np.max(mgf.empirical[ok]
                                            / mgf.bound[ok])))
    for f in bumps[:4]:
        fac = moment_factorial_check(traj, f, (1, 2, 3, 4), 0.0, 1.0,
                                     fitted_c=fitted, p=7.0)
        passed &= fac.all_passed
        worst = max(worst, float(np.max(fac.moments / fac.bounds)))
    detail = f"max (empirical / bound) over corpus {worst:.3f}"
    return bool(passed), worst, 1.0, detail


# ---------------------------------------------------------------------------
# 14: measure evolution


def _measure_evolution(fast):
    n_atoms = 20_000 if fast else 100_000
    free = library_field("free", 1)
    mu = particle_measure(free, point_mass(np.zeros(2)), n_atoms, 1.0,
                          0.125, checkpoints=(1.0,),
                          scheme="kinetic-exact", master_seed=41)[-1]
    exact = exact_measure_constant(_A_HALF, np.zeros(2), 1.0)
    dist = measure_distance(mu, exact)
    floor = two_sample_floor(exact, n_atoms, master_seed=43)
    ratio = float(dist / floor)

    field = library_field("hoelder-drift", 1)
    ladder = (0.125, 0.0625, 0.03125) if fast else (0.125, 0.0625, 0.03125,
                                                    0.015625)
    study = residual_refinement_study(
        field, gaussian_cloud(np.zeros(2), 1.0), ladder,
        8000 if fast else 20_000, horizon=1.0, master_seed=47,
        replicas=3 if fast else 4)
    slope = study.slope()
    gates_ok = bool(np.all(np.isfinite(study.gates)))
    passed = ratio <= 2.0 and slope <= -0.7 and gates_ok
    detail = (f"distance/floor {ratio:.3f}; integrability max "
              f"{float(np.max(study.gates)):.3f}")
    return passed, slope, -0.7, detail


# ---------------------------------------------------------------------------
# 15-16: supporting estimates


def _gronwall_suite(fast):
    corpus = gronwall_corpus(30 if fast else 100, master_seed=0)
    worst = 0.0
    passed = True
    for i, spec in enumerate(corpus):
        check = stochastic_gronwall_check(spec, num_paths=400 if fast
                                          else 1000, master_seed=500 + i)
        passed &= check.passed
        worst = max(worst, check.fitted_c)
    detail = f"{len(corpus)} instances, one corpus constant"
    return bool(passed), worst, GRONWALL_REFERENCE_C, detail


def _band_limited_sample(seed, n=64, k_max=6):
    rng = np.random.default_rng(seed)
    kx, kv = np.meshgrid(np.fft.fftfreq(n, d=1.0 / n),
                         np.fft.fftfreq(n, d=1.0 / n), indexing="ij")
    spec = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mask = (np.abs(kx) <= k_max) & (np.abs(kv) <= k_max)
    spec *= mask * np.exp(-0.15 * (kx**2 + kv**2))
    vals = np.fft.ifft2(spec).real
    vals *= n / max(1.0, float(np.abs(vals).max()))
    return GridFunction(vals, 4.0, ("x", "v"))


def _maximal_corpus(fast):
    worst_fit = 0.0
    worst_op = {2.0: 0.0, 4.0: 0.0}
    count = 20 if fast else 50
    for seed in range(count):
        f = _band_limited_sample(seed)
        report = lipschitz_via_maximal_check(f)
        worst_fit = max(worst_fit, report.fitted_constant)
        mf = maximal_function(f)
        for p in (2.0, 4.0):
            num = float(np.mean(np.abs(mf.values) ** p)) ** (1.0 / p)
            den = float(np.mean(np.abs(f.values) ** p)) ** (1.0 / p)
            worst_op[p] = max(worst_op[p], num / den)
    ops_ok = all(worst_op[p] <= MAXIMAL_OPNORM_REFERENCE[p]
                 for p in worst_op)
    passed = worst_fit <= LIPSCHITZ_REFERENCE_C and ops_ok
    detail = (f"{count} samples; op norms p=2: {worst_op[2.0]:.3f}, "
              f"p=4: {worst_op[4.0]:.3f}")
    return passed, worst_fit, LIPSCHITZ_REFERENCE_C, detail


# ---------------------------------------------------------------------------
# 17: artifact determinism
#
# kernel, spaces and krylov do no worker-dependent work, and flow's paths
# fit in one integrator.map_walk chunk, so their two runs take the same
# serial path.
# converge and fokker-planck take a real worker path at 8 workers: one
# ladder level per task, and fokker-planck's weak residual runs its
# members in forked groups and formats atoms.csv one checkpoint per task.


def _experiment_texts(fast):
    n_flow = 200 if fast else 400
    n_conv = 128 if fast else 256
    n_kry = 256 if fast else 512
    n_fp = 1000 if fast else 2000
    return {
        "kernel": "experiment = kernel\nseed = 1\nT = 1\n",
        "spaces": "experiment = spaces\nseed = 1\n",
        "flow": f"experiment = flow\nseed = 5\nT = 0.5\ndt = 0.03125\n"
                f"N = {n_flow}\nfield.name = hoelder-drift\n",
        "converge": f"experiment = converge\nseed = 7\nT = 0.5\n"
                    f"dt = 0.03125\nN = {n_conv}\np = 7\n"
                    f"n_ladder = 4,8,16\nfield.name = hoelder-drift\n",
        "krylov": f"experiment = krylov\nseed = 9\nT = 0.5\n"
                  f"dt = 0.0078125\nN = {n_kry}\np = 7\n"
                  f"field.name = hoelder-drift\n",
        "fokker-planck": f"experiment = fokker-planck\nseed = 11\nT = 0.5\n"
                         f"dt = 0.0625\nN = {n_fp}\n"
                         f"field.name = hoelder-drift\n",
    }


def _run_with_workers(text, out_dir, workers):
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = workers
    try:
        run_experiment(parse_config_text(text + f"output = {out_dir}\n"))
    finally:
        if previous is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = previous


def _determinism(fast):
    differing = 0
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _experiment_texts(fast).items():
            dirs = []
            for workers in ("1", "8"):
                out = Path(tmp) / f"{name}-w{workers}"
                _run_with_workers(text, out, workers)
                dirs.append(out)
            a_files = sorted(p.name for p in dirs[0].glob("*.csv"))
            b_files = sorted(p.name for p in dirs[1].glob("*.csv"))
            if a_files != b_files:
                differing += 1
                continue
            for fname in a_files:
                checked += 1
                if ((dirs[0] / fname).read_bytes()
                        != (dirs[1] / fname).read_bytes()):
                    differing += 1
    detail = f"{checked} CSVs compared across worker counts 1 and 8"
    return differing == 0, float(differing), 0.0, detail


# ---------------------------------------------------------------------------
# battery

_CRITERIA = (
    (1, "kernel-covariance", _kernel_covariance),
    (2, "semigroup-composition", _semigroup_composition),
    (3, "gradient-scaling", _gradient_scaling),
    (4, "anisotropic-smoothing", _anisotropic_smoothing),
    (5, "picard-contraction", _picard_contraction),
    (6, "velocity-sandwich", _velocity_sandwich),
    (7, "transformed-residual", _transformed_residual),
    (8, "strong-convergence", _strong_convergence),
    (9, "two-point-moments", _two_point_stability),
    (10, "weak-gradient-moments", _weak_gradient_moments),
    (11, "homeomorphism", _homeomorphism),
    (12, "occupation-ratios", _occupation_ratios),
    (13, "exponential-moments", _exponential_moments),
    (14, "measure-evolution", _measure_evolution),
    (15, "stochastic-gronwall", _gronwall_suite),
    (16, "maximal-function", _maximal_corpus),
    (17, "determinism", _determinism),
)

SUITES = {"fast": True, "full": False}


def run_criterion(index, fast=False):
    """Run one criterion by index; mainly for targeted debugging."""
    for idx, name, fn in _CRITERIA:
        if idx == index:
            start = time.perf_counter()
            passed, measured, threshold, detail = fn(fast)
            return CriterionResult(idx, name, bool(passed), float(measured),
                                   float(threshold), detail,
                                   time.perf_counter() - start)
    raise ValidationError(f"no criterion {index}; valid range 1..17")


def run_acceptance(suite, out_dir="acceptance-out"):
    """Run a suite, write ``acceptance.csv``, return the result rows."""
    if suite not in SUITES:
        raise ValidationError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    fast = SUITES[suite]
    results = [run_criterion(idx, fast) for idx, _, _ in _CRITERIA]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(out / "acceptance.csv",
               ["criterion", "name", "passed", "measured", "threshold",
                "seconds"],
               [(r.index, r.name, int(r.passed), r.measured, r.threshold,
                 r.seconds) for r in results])
    return results

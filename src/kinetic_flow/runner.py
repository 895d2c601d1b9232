"""Experiment dispatch: one parsed config in, CSV files plus a manifest out.

Each experiment is a thin orchestration of one module's public surface
with the config's seed threaded through; all output rows are written in
a fixed order through `write_rows`, with 17-significant-digit decimals,
so reruns are byte comparable.  The manifest records the verbatim config
(the echo alone reproduces the run), its git-style blob hash, the wall
time, and the Python, numpy and scipy versions and KF_WORKERS count the
run had: the pinned output bits rest on numpy's and scipy's FFTs.
"""

import csv
import hashlib
import os
import platform
import time

import numpy as np
import scipy

from . import flow, fokker_planck as fp, krylov, spaces, zvonkin
from .config import ZVONKIN_SLICES, ExperimentConfig
from .errors import ValidationError
from .fields import library_field, mollified
from .grids import GridFunction
from .integrator import BrownianGrid, evolve
from .kernel import kernel_covariance
from .parallel import worker_count

__all__ = ["run_experiment", "manifest_hash", "write_rows"]

_DELTA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)
_FMT = "%.17g"


def manifest_hash(text):
    """Git blob hash of the config text, hex."""
    payload = text.encode("utf-8")
    return hashlib.sha1(
        b"blob %d\0" % len(payload) + payload
    ).hexdigest()


def _build_field(cfg):
    base = library_field(cfg.field_name, cfg.d, **cfg.field_params)
    if cfg.mollify > 0:
        return mollified(base, cfg.mollify)
    return base


def write_rows(path, header, rows):
    """CSV of ``header`` and ``rows``: string cells verbatim, numbers %.17g."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                cell if isinstance(cell, str) else _FMT % cell
                for cell in row
            ])


def _run_kernel(cfg, out_dir):
    field = _build_field(cfg)
    if field.constant_sigma is None:
        raise ValidationError("kernel experiment needs a constant-sigma field")
    cov = kernel_covariance(field.generator_a(), 0.0, cfg.horizon)
    rows = []
    for block, mat in (("xx", cov.c_xx), ("xv", cov.c_xv), ("vv", cov.c_vv)):
        mat = np.atleast_2d(mat)
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                rows.append((block, i, j, mat[i, j]))
    write_rows(os.path.join(out_dir, "covariance.csv"),
               ["block", "row", "col", "value"], rows)
    return ["covariance.csv"], {}


def _run_spaces(cfg, out_dir):
    probe = GridFunction.from_callable(
        lambda x, v: np.exp(-2.0 * (x**2 + v**2)),
        box_half_width=4.0, points_per_axis=128, axis_kinds=("x", "v"),
    )
    rows = []
    for alpha in (1.0 / 3.0, 2.0 / 3.0, 1.0):
        for beta in (0.0, 1.0):
            rows.append((alpha, beta, 2.0,
                         spaces.bessel_norm(probe, alpha, beta, 2.0)))
    write_rows(os.path.join(out_dir, "spaces.csv"),
               ["alpha", "beta", "p", "norm"], rows)
    return ["spaces.csv"], {}


def _run_flow(cfg, out_dir):
    field = _build_field(cfg)
    e0 = np.eye(2 * cfg.d)[0]
    z = 0.3 * e0
    partners = z + np.outer(_DELTA_LADDER, e0)
    ests = flow.two_point_moment(field, z, partners, 1.0, cfg.num_paths,
                                 cfg.horizon, cfg.dt, master_seed=cfg.seed)
    write_rows(os.path.join(out_dir, "flow.csv"),
               ["delta", "q", "ratio", "std_error"],
               [(delta, 1.0, est.value, est.std_error)
                for delta, est in zip(_DELTA_LADDER, ests)])
    return ["flow.csv"], {}


def _run_converge(cfg, out_dir):
    field = _build_field(cfg)
    table = flow.convergence_study(field, cfg.n_ladder, 2.0, cfg.num_paths,
                                   cfg.horizon, cfg.dt, cfg.p,
                                   master_seed=cfg.seed)
    write_rows(os.path.join(out_dir, "converge.csv"),
               ["n", "e_n", "B_n", "ratio"],
               zip(table.n, table.e, table.bound, table.ratio))
    return ["converge.csv"], {"ratio_spread": "%.6g" % table.ratio_spread()}


def _run_zvonkin(cfg, out_dir):
    field = _build_field(cfg)
    if field.constant_sigma is None:
        raise ValidationError("zvonkin experiment needs a constant-sigma field")
    result = zvonkin.search_lambda(
        field.drift, cfg.horizon, field.generator_a(),
        box_half_width=8.0, points_per_axis=128, num_slices=ZVONKIN_SLICES,
        dim=cfg.d, lam_init=cfg.lam,
    )
    write_rows(os.path.join(out_dir, "contraction.csv"),
               ["iter", "increment_sup"],
               [(k + 1, inc) for k, inc in enumerate(result.increments)])
    transform = zvonkin.zvonkin_transform(result.u, field.constant_sigma)
    grid = BrownianGrid(cfg.seed, cfg.horizon / ZVONKIN_SLICES, ZVONKIN_SLICES,
                        cfg.d)
    z0 = np.zeros(2 * cfg.d)
    z0[0] = 0.3
    report = zvonkin.transformed_sde_residual(
        transform, field, z0, grid, cfg.num_paths)
    rows = [(t, m, s) for t, m, s in zip(
        report.times, np.linalg.norm(np.atleast_2d(report.mean), axis=-1),
        np.linalg.norm(np.atleast_2d(report.std_error), axis=-1))]
    write_rows(os.path.join(out_dir, "residual.csv"),
               ["t", "mean_residual", "std_error"], rows)
    # lam:reason[=ratio or sup] per lam the search tried, in ladder order
    tried = ",".join(
        f"{lam:.17g}:{reason}" + ("" if value is None else f"={value:.17g}")
        for lam, reason, value in result.lambda_tried)
    return (["contraction.csv", "residual.csv"],
            {"lambda_star": "%.17g" % result.u.lam,
             "grad_v_sup": "%.17g" % result.u.gradient_v_sup(),
             "lambda_tried": tried})


def _run_krylov(cfg, out_dir):
    field = _build_field(cfg)
    bumps = krylov.bump_family()
    table = krylov.krylov_ratio(field, bumps, cfg.p,
                                krylov.experiment_windows(cfg.horizon),
                                cfg.num_paths, 2.0 * cfg.horizon, cfg.dt,
                                master_seed=cfg.seed, restart=True)
    write_rows(os.path.join(out_dir, "krylov.csv"),
               ["f_id", "window", "estimate", "se", "norm_lp", "ratio"],
               [(fid, f"{t0:g}:{t1:g}", est, se, nrm, rat)
                for fid, (t0, t1), est, se, nrm, rat in zip(
                    table.f_ids, table.windows, table.estimates,
                    table.std_errors, table.norms, table.ratios)])
    paths = evolve(field, np.zeros((cfg.num_paths, 2 * cfg.d)),
                   BrownianGrid.for_horizon(cfg.seed + 1, cfg.horizon,
                                            cfg.dt, cfg.d))
    mgf = krylov.khasminskii_mgf(paths, bumps[0], [1.0, 2.0, 4.0], 0.0,
                                 cfg.horizon, fitted_c=table.fitted_c,
                                 p=cfg.p)
    write_rows(os.path.join(out_dir, "mgf.csv"),
               ["lambda", "empirical_mgf", "bound", "pass"],
               [(lam, emp, bnd, int(ok)) for lam, emp, bnd, ok in zip(
                   mgf.lam, mgf.empirical, mgf.bound, mgf.passed)])
    return (["krylov.csv", "mgf.csv"],
            {"fitted_c": "%.17g" % table.fitted_c})


def _run_fokker_planck(cfg, out_dir):
    field = _build_field(cfg)
    z0 = np.zeros(2 * cfg.d)
    z0[0] = 0.3
    measures = fp.particle_measure(
        field, fp.point_mass(z0), cfg.num_paths, cfg.horizon, cfg.dt,
        scheme="em", master_seed=cfg.seed)
    last = len(measures) - 1
    quarter_idx = sorted({0, last // 4, last // 2, 3 * last // 4, last})
    fp.checkpoints_to_csv([measures[i] for i in quarter_idx],
                          os.path.join(out_dir, "atoms.csv"))
    table = fp.weak_residual(measures, field, fp.test_dictionary())
    write_rows(os.path.join(out_dir, "residual.csv"),
               ["phi_id", "t", "residual", "se"],
               [(name, t, r, s)
                for name, res, se in zip(table.phi_names, table.residuals,
                                         table.std_errors)
                for t, r, s in zip(table.times, res, se)])
    return (["atoms.csv", "residual.csv"],
            {"integrability": "%.17g" % table.integrability})


_DISPATCH = {
    "kernel": _run_kernel,
    "spaces": _run_spaces,
    "flow": _run_flow,
    "converge": _run_converge,
    "zvonkin": _run_zvonkin,
    "krylov": _run_krylov,
    "fokker-planck": _run_fokker_planck,
}


def run_experiment(cfg):
    """Execute one config; returns the list of files written (manifest last)."""
    if not isinstance(cfg, ExperimentConfig):
        raise ValidationError("run_experiment needs an ExperimentConfig")
    out_dir = cfg.output
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    outputs, notes = _DISPATCH[cfg.experiment](cfg, out_dir)
    wall = time.perf_counter() - start

    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        fh.write("# kinetic-flow run manifest\n")
        fh.write(f"experiment = {cfg.experiment}\n")
        fh.write(f"config_sha1 = {manifest_hash(cfg.source_text)}\n")
        fh.write(f"wall_seconds = {wall:.3f}\n")
        fh.write(f"outputs = {','.join(outputs)}\n")
        for key in sorted(notes):
            fh.write(f"note.{key} = {notes[key]}\n")
        fh.write(f"python = {platform.python_version()}\n")
        fh.write(f"numpy = {np.__version__}\n")
        fh.write(f"scipy = {scipy.__version__}\n")
        fh.write(f"workers = {worker_count()}\n")
        fh.write("# --- config echo (verbatim) ---\n")
        fh.write(cfg.source_text)
        if cfg.source_text and not cfg.source_text.endswith("\n"):
            fh.write("\n")
    return outputs + ["manifest.txt"]

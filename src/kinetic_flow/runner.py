"""Experiment dispatch: one parsed config in, CSV files plus a manifest out.

Each experiment is a thin orchestration of one module's public surface
with the config's seed threaded through; all output rows are written in
a fixed order with 17-significant-digit decimals, so reruns are byte
comparable.  The manifest records the verbatim config (the echo alone
reproduces the run), its git-style blob hash, and the wall time.
"""

import csv
import hashlib
import os
import time

import numpy as np

from . import flow, fokker_planck as fp, krylov, spaces, zvonkin
from .config import ExperimentConfig
from .errors import ValidationError
from .fields import library_field, mollified
from .grids import GridFunction
from .integrator import BrownianGrid
from .kernel import kernel_covariance
from .parallel import parallel_map

__all__ = ["run_experiment", "manifest_hash"]

_DELTA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)
# time slices of the zvonkin experiment's resolvent grid; its paths must
# step on the same grid
_ZVONKIN_SLICES = 128
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


def _write_rows(path, header, rows):
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
                rows.append((block, "%d" % i, "%d" % j, mat[i, j]))
    _write_rows(os.path.join(out_dir, "covariance.csv"),
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
    _write_rows(os.path.join(out_dir, "spaces.csv"),
                ["alpha", "beta", "p", "norm"], rows)
    return ["spaces.csv"], {}


def _run_flow(cfg, out_dir):
    field = _build_field(cfg)
    z = np.zeros(2 * cfg.d)
    z[0] = 0.3

    def one(delta):
        z_prime = z.copy()
        z_prime[0] += delta
        est = flow.two_point_moment(field, z, z_prime, 1.0, cfg.num_paths,
                                    cfg.horizon, cfg.dt,
                                    master_seed=cfg.seed)
        return (delta, 1.0, est.value, est.std_error)

    rows = parallel_map(one, _DELTA_LADDER)
    _write_rows(os.path.join(out_dir, "flow.csv"),
                ["delta", "q", "ratio", "std_error"], rows)
    return ["flow.csv"], {}


def _run_converge(cfg, out_dir):
    field = _build_field(cfg)
    table = flow.convergence_study(field, cfg.n_ladder, 2.0, cfg.num_paths,
                                   cfg.horizon, cfg.dt, cfg.p,
                                   master_seed=cfg.seed)
    table.to_csv(os.path.join(out_dir, "converge.csv"))
    return ["converge.csv"], {"ratio_spread": "%.6g" % table.ratio_spread()}


def _run_zvonkin(cfg, out_dir):
    field = _build_field(cfg)
    if field.constant_sigma is None:
        raise ValidationError("zvonkin experiment needs a constant-sigma field")
    steps = max(int(round(cfg.horizon / cfg.dt)), 1)
    if steps != _ZVONKIN_SLICES:
        raise ValidationError(
            f"zvonkin runs on a fixed {_ZVONKIN_SLICES}-slice time grid: "
            f"need T/dt = {_ZVONKIN_SLICES}, got {steps}")
    result = zvonkin.search_lambda(
        field.drift, cfg.horizon, field.generator_a(),
        box_half_width=8.0, points_per_axis=128, num_slices=_ZVONKIN_SLICES,
        dim=cfg.d, lam_init=cfg.lam,
    )
    _write_rows(os.path.join(out_dir, "contraction.csv"),
                ["iter", "increment_sup"],
                [("%d" % (k + 1), inc)
                 for k, inc in enumerate(result.increments)])
    transform = zvonkin.zvonkin_transform(result.u, field.constant_sigma)
    grid = BrownianGrid(cfg.seed, cfg.horizon / steps, steps, cfg.d)
    z0 = np.zeros(2 * cfg.d)
    z0[0] = 0.3
    report = zvonkin.transformed_sde_residual(
        transform, field, z0, grid, cfg.num_paths)
    rows = [(t, m, s) for t, m, s in zip(
        report.times, np.linalg.norm(np.atleast_2d(report.mean), axis=-1),
        np.linalg.norm(np.atleast_2d(report.std_error), axis=-1))]
    _write_rows(os.path.join(out_dir, "residual.csv"),
                ["t", "mean_residual", "std_error"], rows)
    return (["contraction.csv", "residual.csv"],
            {"lambda_star": "%.17g" % result.u.lam,
             "grad_v_sup": "%.17g" % result.u.gradient_v_sup()})


def _run_krylov(cfg, out_dir):
    field = _build_field(cfg)
    bumps = krylov.bump_family(20)
    horizon = 2.0 * cfg.horizon
    windows = [
        (0.0, 0.5 * cfg.horizon),
        (0.0, cfg.horizon),
        (0.0, 2.0 * cfg.horizon),
        (0.5 * cfg.horizon, cfg.horizon),
    ]
    z0 = np.zeros(2 * cfg.d)
    table = krylov.krylov_ratio(field, bumps, cfg.p, windows, cfg.num_paths,
                                horizon, cfg.dt, z0=z0,
                                master_seed=cfg.seed, restart=True)
    table.to_csv(os.path.join(out_dir, "krylov.csv"))
    mgf = krylov.khasminskii_mgf(
        field, bumps[0], [1.0, 2.0, 4.0], 0.0, cfg.horizon, cfg.num_paths,
        cfg.horizon, cfg.dt, fitted_c=table.fitted_c, p=cfg.p, z0=z0,
        master_seed=cfg.seed + 1)
    mgf.to_csv(os.path.join(out_dir, "mgf.csv"))
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
    table.to_csv(os.path.join(out_dir, "residual.csv"))
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
        fh.write("# --- config echo (verbatim) ---\n")
        fh.write(cfg.source_text)
        if cfg.source_text and not cfg.source_text.endswith("\n"):
            fh.write("\n")
    return outputs + ["manifest.txt"]

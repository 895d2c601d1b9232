"""Each output check passes on real output and fails on corrupted output.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import run as bench
from kinetic_flow import fields, runner, zvonkin
from kinetic_flow.config import parse_config_text
from layertrace import Tracer

LADDER = dict(bench.WORKLOADS["rough-ladder"], N=100, dt=1 / 32, seed=5, d=1)
RESOLVENT = dict(bench.WORKLOADS["resolvent"], N=1000, seed=5, d=1)
PARTICLES = dict(bench.WORKLOADS["particles"], N=4096, seed=5, d=1)
FLOW = dict(bench.WORKLOADS["coupled-flow"], T=0.5, dt=1 / 32, N=1024, seed=5, d=1)


def run_spec(out, spec):
    text = bench.config_text(spec, spec["seed"], str(out))
    outputs = runner.run_experiment(parse_config_text(text))
    return str(out), text, outputs


def check(run, spec):
    return checks.check_outputs(run[0], spec, run[1], run[2])


def rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + edit(rows[1:])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def rewrite_manifest(out, key, value):
    path = os.path.join(out, "manifest.txt")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def scale_column(col, factor, rows_selected=lambda i, row: True):
    def edit(rows):
        return [row[:col] + ["%.17g" % (float(row[col]) * factor)] + row[col + 1:]
                if rows_selected(i, row) else row for i, row in enumerate(rows)]
    return edit


@pytest.fixture(scope="module")
def ladder_run(tmp_path_factory):
    return run_spec(tmp_path_factory.mktemp("ladder") / "out", LADDER)


@pytest.fixture(scope="module")
def resolvent_run(tmp_path_factory):
    return run_spec(tmp_path_factory.mktemp("resolvent") / "out", RESOLVENT)


@pytest.fixture(scope="module")
def particles_run(tmp_path_factory):
    return run_spec(tmp_path_factory.mktemp("particles") / "out", PARTICLES)


@pytest.fixture(scope="module")
def flow_run(tmp_path_factory):
    return run_spec(tmp_path_factory.mktemp("flow") / "out", FLOW)


def copy_run(run, tmp_path):
    dest = tmp_path / "copy"
    dest.mkdir(parents=True)
    for name in run[2]:
        with open(os.path.join(run[0], name), "rb") as src:
            (dest / name).write_bytes(src.read())
    return str(dest), run[1], run[2]


# -- rough-ladder ------------------------------------------------------------


def test_ladder_passes(ladder_run):
    assert check(ladder_run, LADDER) == []


@pytest.mark.parametrize("edit", [
    lambda rows: rows[::-1],                               # shuffled rungs
    scale_column(1, 3.0, lambda i, row: i == 2),           # e_n no longer decreasing
    scale_column(2, 0.5),                                  # B_n below its n^(2d/p-1) floor
])
def test_ladder_rejects_corrupted_csv(ladder_run, tmp_path, edit):
    run = copy_run(ladder_run, tmp_path)
    rewrite_csv(os.path.join(run[0], "converge.csv"), edit)
    assert check(run, LADDER)


def test_ladder_rejects_spread_above_four(ladder_run, tmp_path):
    run = copy_run(ladder_run, tmp_path)
    # e_n and ratio of the last rung scaled together: consistent columns,
    # still decreasing, but the ratio spread exceeds #8's bound
    def edit(rows):
        rows = scale_column(1, 0.1, lambda i, row: i == 2)(rows)
        return scale_column(3, 0.1, lambda i, row: i == 2)(rows)
    rewrite_csv(os.path.join(run[0], "converge.csv"), edit)
    assert any("spread" in message for message in check(run, LADDER))


# -- resolvent ---------------------------------------------------------------


def test_resolvent_passes(resolvent_run):
    assert check(resolvent_run, RESOLVENT) == []


def test_resolvent_rejects_zero_shift(tmp_path, monkeypatch):
    """u = 0 passes every PDE-side check but breaks E R_t = 0 along paths."""
    def zero_solution(drift, horizon, a, *, box_half_width, points_per_axis,
                      num_slices, dim=1, lam_init=1.0, **kwargs):
        u = zvonkin.SpaceTimeField.zeros(num_slices, horizon, box_half_width,
                                         points_per_axis, dim, a, 2.0 * lam_init)
        return zvonkin.PicardResult(u, np.array([0.5, 0.05, 5e-9]), 3)

    monkeypatch.setattr(zvonkin, "search_lambda", zero_solution)
    errors = check(run_spec(tmp_path / "out", RESOLVENT), RESOLVENT)
    assert errors and all("residual" in message for message in errors)


def test_resolvent_rejects_corrupted_outputs(resolvent_run, tmp_path):
    run = copy_run(resolvent_run, tmp_path)
    rewrite_csv(os.path.join(run[0], "contraction.csv"), lambda rows: rows[::-1])
    assert check(run, RESOLVENT)
    run = copy_run(resolvent_run, tmp_path / "b")
    rewrite_manifest(run[0], "note.lambda_star", "3")
    assert check(run, RESOLVENT)
    run = copy_run(resolvent_run, tmp_path / "c")
    rewrite_manifest(run[0], "note.grad_v_sup", "0.6")
    assert check(run, RESOLVENT)


# -- particles ---------------------------------------------------------------


def test_particles_passes(particles_run):
    assert check(particles_run, PARTICLES) == []


def test_particles_rejects_perturbed_drift(tmp_path, monkeypatch):
    def stronger(name, dim, **params):
        return fields.library_field(name, dim, kappa=1.5, **params)

    monkeypatch.setattr(runner, "library_field", stronger)
    errors = check(run_spec(tmp_path / "out", PARTICLES), PARTICLES)
    assert any("reference" in message for message in errors)


def test_particles_rejects_shuffled_atoms(particles_run, tmp_path):
    run = copy_run(particles_run, tmp_path)
    rng = np.random.default_rng(0)

    def shuffle_times(rows):
        times = [row[0] for row in rows]
        rng.shuffle(times)
        return [[t] + row[1:] for t, row in zip(times, rows)]

    rewrite_csv(os.path.join(run[0], "atoms.csv"), shuffle_times)
    assert check(run, PARTICLES)


def test_particles_rejects_perturbed_residual(particles_run, tmp_path):
    run = copy_run(particles_run, tmp_path)
    rewrite_csv(os.path.join(run[0], "residual.csv"),
                scale_column(2, 1.5, lambda i, row: row[0] == "x3v0[2.5,4]"))
    assert any("x3v0" in message for message in check(run, PARTICLES))


# -- coupled-flow ------------------------------------------------------------


def test_flow_passes(flow_run):
    assert check(flow_run, FLOW) == []


@pytest.mark.parametrize("edit", [
    lambda rows: rows[::-1],                                  # shuffled deltas
    lambda rows: [row[:2] + ["0.9"] + row[3:] if i == 1 else row
                  for i, row in enumerate(rows)],             # ratio below 1
    scale_column(2, 4.0, lambda i, row: i == 0),              # spread above 3
])
def test_flow_rejects_corrupted_csv(flow_run, tmp_path, edit):
    run = copy_run(flow_run, tmp_path)
    rewrite_csv(os.path.join(run[0], "flow.csv"), edit)
    assert check(run, FLOW)


def test_manifest_must_echo_the_config(flow_run, tmp_path):
    run = copy_run(flow_run, tmp_path)
    assert checks.check_outputs(run[0], FLOW, run[1].replace("seed = 5", "seed = 6"), run[2])


# -- tracing and the entry point ---------------------------------------------


def test_traced_run_writes_identical_csvs_and_exact_counts(flow_run, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_spec(tmp_path / "traced", FLOW)
    finally:
        tracer.uninstall()
    assert runner.run_experiment.__name__ == "run_experiment"
    with open(os.path.join(flow_run[0], "flow.csv"), "rb") as a, \
            open(os.path.join(traced[0], "flow.csv"), "rb") as b:
        assert a.read() == b.read()
    layers = tracer.summary()
    steps = round(FLOW["T"] / FLOW["dt"])
    # 4 deltas x 2 coupled starts, each evolving every path once
    assert layers["integrator.path_steps"] == 8 * FLOW["N"] * steps
    assert layers["integrator.noise_use_ratio"] == 1 / 8
    assert layers["flow.evolve_calls"] == 8
    assert layers["parallel.tasks"] == 4
    assert layers["fields.drift_states"] == 8 * FLOW["N"] * steps
    spans = tmp_path / "spans.jsonl"
    tracer.write_spans(spans)
    assert len(spans.read_text().splitlines()) == len(tracer.spans)


def test_entry_point_refuses_a_directory_without_the_package(tmp_path):
    script = os.path.join(os.path.dirname(checks.__file__), "run.py")
    proc = subprocess.run([sys.executable, script, "--workload", "particles",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

"""Config dialect, worker pool, experiment runner, and CLI exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from kinetic_flow import cli
from kinetic_flow.config import ExperimentConfig, parse_config, parse_config_text
from kinetic_flow.errors import ValidationError
from kinetic_flow.parallel import parallel_map, worker_count
from kinetic_flow.runner import manifest_hash, run_experiment

CONVERGE_TEXT = """\
# strong-convergence ladder, free field
experiment = converge
seed = 2
T = 0.25
dt = 0.0625
N = 128
p = 7
n_ladder = 2,4,8
output = {out}
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_full_converge_config():
    cfg = parse_config_text(CONVERGE_TEXT.format(out="/tmp/x"))
    assert cfg.experiment == "converge"
    assert cfg.seed == 2 and cfg.num_paths == 128
    assert cfg.horizon == 0.25 and cfg.dt == 0.0625
    assert cfg.p == 7.0 and cfg.n_ladder == (2, 4, 8)
    assert cfg.field_name == "free" and cfg.mollify == 0
    assert cfg.source_text.startswith("# strong-convergence")


def test_parse_defaults_and_comments():
    cfg = parse_config_text(
        "experiment = spaces   # trailing comment\n"
        "\n"
        "seed = 0\n"
        "output = out\n"
    )
    assert cfg.d == 1 and cfg.dt == 1.0 / 64
    assert cfg.num_paths == 1000 and cfg.p == 7.0
    assert cfg.n_ladder == (4, 8, 16, 32)


@pytest.mark.parametrize("line,message", [
    ("bogus = 1", "line 3: unknown key 'bogus'"),
    ("seed = 1", "line 3: duplicate key 'seed'"),
    ("T =", "line 3: empty value for 'T'"),
    ("just words", "line 3: expected key = value"),
    ("N = 1.5", "line 3"),
])
def test_parse_errors_carry_line_numbers(line, message):
    text = f"experiment = kernel\nseed = 1\n{line}\nT = 1\noutput = out\n"
    with pytest.raises(ValidationError, match=message.replace("(", "\\(")):
        parse_config_text(text)


def test_parse_missing_required_keys():
    with pytest.raises(ValidationError, match="missing required key 'seed'"):
        parse_config_text("experiment = kernel\nT = 1\noutput = out\n")
    with pytest.raises(ValidationError, match="needs keys: n_ladder"):
        parse_config_text(
            "experiment = converge\nseed = 1\nT = 1\ndt = 0.25\n"
            "N = 100\np = 7\noutput = out\n"
        )
    with pytest.raises(ValidationError, match="unknown experiment"):
        parse_config_text("experiment = warp\nseed = 1\noutput = out\n")


def test_parse_p_gate():
    with pytest.raises(ValidationError, match="needs p > 2d\\+1 = 3"):
        parse_config_text(
            "experiment = krylov\nseed = 1\nT = 1\ndt = 0.015625\n"
            "N = 100\np = 3\noutput = out\n"
        )
    with pytest.raises(ValidationError, match="needs p > 2d\\+1 = 3"):
        ExperimentConfig("converge", 0, "out", p=2.0)


@pytest.mark.parametrize("experiment,keys", [
    ("krylov", "T = 1\ndt = 0.015625\nN = 100\np = 7\n"),
    ("fokker-planck", "T = 1\ndt = 0.0625\nN = 100\n"),
    ("zvonkin", "T = 1\nlambda = 1\n"),
    ("converge", "T = 1\ndt = 0.0625\nN = 100\np = 7\nn_ladder = 4,8,16\n"),
])
def test_parse_refuses_d_above_one(experiment, keys, tmp_path, capsys):
    text = f"experiment = {experiment}\nseed = 1\nd = 2\n{keys}"
    with pytest.raises(ValidationError, match="runs at d = 1 only, got d = 2"):
        parse_config_text(text + "output = out\n")
    out = tmp_path / "out"
    path = write_config(tmp_path, text + f"output = {out}\n")
    assert cli.main(["run", path]) == 2
    assert "d = 1 only" in capsys.readouterr().err
    assert not out.exists()
    # the flow experiment runs at any d
    parse_config_text("experiment = flow\nseed = 1\nd = 2\nT = 1\n"
                      "dt = 0.0625\nN = 100\noutput = out\n")


# ---------------------------------------------------------------------------
# worker pool


def test_worker_count_env_contract():
    assert worker_count({}) == 1
    assert worker_count({"KF_WORKERS": ""}) == 1
    assert worker_count({"KF_WORKERS": "4"}) == 4
    for bad in ("abc", "0", "-2", "65"):
        with pytest.raises(ValidationError):
            worker_count({"KF_WORKERS": bad})


def test_parallel_map_preserves_order():
    items = list(range(40))
    serial = [i * i - 3 for i in items]
    assert parallel_map(lambda i: i * i - 3, items, workers=1) == serial
    assert parallel_map(lambda i: i * i - 3, items, workers=4) == serial


# ---------------------------------------------------------------------------
# manifest hashing


def test_manifest_hash_is_git_blob_sha1():
    assert manifest_hash("") == "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
    assert manifest_hash("hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"
    assert manifest_hash("a") != manifest_hash("b")


# ---------------------------------------------------------------------------
# runner


def kernel_config(out_dir):
    return parse_config_text(
        f"experiment = kernel\nseed = 1\nT = 1\n"
        f"field.name = hoelder-drift\noutput = {out_dir}\n"
    )


def read_lines(path):
    raw = path.read_bytes()
    assert b"\r" not in raw
    return raw.decode("utf-8").splitlines()


def test_kernel_runner_outputs(tmp_path):
    out = tmp_path / "run"
    files = run_experiment(kernel_config(out))
    assert files == ["covariance.csv", "manifest.txt"]
    lines = read_lines(out / "covariance.csv")
    assert lines[0] == "block,row,col,value"
    table = {row.split(",")[0]: float(row.split(",")[3]) for row in lines[1:]}
    # unit-diffusion kinetic blocks at T = 1 with a = 1/2
    assert np.isclose(table["xx"], 1.0 / 3.0, rtol=1e-15)
    assert np.isclose(table["xv"], 0.5, rtol=1e-15)
    assert np.isclose(table["vv"], 1.0, rtol=1e-15)


def test_kernel_runner_rerun_is_reproducible(tmp_path):
    out = tmp_path / "run"
    cfg = kernel_config(out)
    run_experiment(cfg)
    first_cov = (out / "covariance.csv").read_bytes()
    first_manifest = read_lines(out / "manifest.txt")
    run_experiment(cfg)
    assert (out / "covariance.csv").read_bytes() == first_cov
    second_manifest = read_lines(out / "manifest.txt")
    # wall time is the only line allowed to move between bytewise reruns
    keep = [ln for ln in first_manifest if not ln.startswith("wall_seconds")]
    keep2 = [ln for ln in second_manifest if not ln.startswith("wall_seconds")]
    assert keep == keep2
    sha_line = next(ln for ln in keep if ln.startswith("config_sha1"))
    assert sha_line.split(" = ")[1] == manifest_hash(cfg.source_text)


def test_spaces_runner_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = parse_config_text(f"experiment = spaces\nseed = 0\noutput = {out}\n")
    files = run_experiment(cfg)
    assert files == ["spaces.csv", "manifest.txt"]
    lines = read_lines(out / "spaces.csv")
    assert lines[0] == "alpha,beta,p,norm"
    assert len(lines) == 7
    norms = np.array([float(r.split(",")[3]) for r in lines[1:]])
    assert np.all(norms > 0.0) and np.all(np.isfinite(norms))


def test_fokker_planck_runner_accepts_mollified_field(tmp_path):
    out = tmp_path / "run"
    cfg = parse_config_text(
        f"experiment = fokker-planck\nseed = 3\nT = 0.25\ndt = 0.0625\n"
        f"N = 40\nfield.name = hoelder-drift\nfield.mollify = 4\n"
        f"output = {out}\n")
    files = run_experiment(cfg)
    assert files == ["atoms.csv", "residual.csv", "manifest.txt"]
    assert read_lines(out / "atoms.csv")[0] == "t,atom_id,x1,v1"
    assert len(read_lines(out / "residual.csv")) > 1


def test_zvonkin_runner_refuses_grid_before_work(tmp_path, monkeypatch,
                                                 capsys):
    from kinetic_flow import zvonkin

    def never(*args, **kwargs):
        raise AssertionError("search_lambda ran before the grid check")

    monkeypatch.setattr(zvonkin, "search_lambda", never)
    out = tmp_path / "run"
    path = write_config(
        tmp_path, f"experiment = zvonkin\nseed = 1\nT = 1\ndt = 0.015625\n"
                  f"lambda = 1\nfield.name = hoelder-drift\noutput = {out}\n")
    assert cli.main(["run", path]) == 2
    assert "128-slice time grid" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_runner_rejects_bad_input():
    with pytest.raises(ValidationError):
        run_experiment("not a config")


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, text):
    path = tmp_path / "exp.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_run_success(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(
        tmp_path, f"experiment = kernel\nseed = 1\nT = 1\noutput = {out}\n")
    assert cli.main(["run", path]) == 0
    assert "covariance.csv" in capsys.readouterr().out
    assert (out / "manifest.txt").exists()


def test_cli_validation_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, "experiment = kernel\nseed = 1\nT = 1\n"
                                 "bogus = 2\noutput = out\n")
    assert cli.main(["run", bad]) == 2
    assert "line 4: unknown key" in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "absent.conf")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_numeric_failure_exit_code(tmp_path, capsys):
    # the free field mollifies to itself, so the ladder has zero gaps and
    # the spread diagnostic degenerates: a numeric failure, not a crash
    out = tmp_path / "out"
    path = write_config(tmp_path, CONVERGE_TEXT.format(out=out))
    assert cli.main(["run", path]) == 3
    assert "zero gap in the ladder" in capsys.readouterr().err


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["acceptance", "enormous"])


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kinetic_flow.cli", "run",
         str(tmp_path / "absent.conf")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "cannot read config" in proc.stderr

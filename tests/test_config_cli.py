"""Config dialect, worker pool, experiment runner, and CLI exit codes."""

import concurrent.futures
import inspect
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
import scipy

from kinetic_flow import cli, errors
from kinetic_flow.acceptance import _experiment_texts
from kinetic_flow.config import ExperimentConfig, parse_config, parse_config_text
from kinetic_flow.errors import LambdaTooSmallError, ValidationError
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
    with pytest.raises(ValidationError, match="needs keys: dt"):
        parse_config_text("experiment = zvonkin\nseed = 1\nT = 1\n"
                          "lambda = 1\noutput = out\n")
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
    ("zvonkin", "T = 1\ndt = 0.0078125\nlambda = 1\n"),
    ("converge", "T = 1\ndt = 0.0625\nN = 100\np = 7\nn_ladder = 4,8,16\n"),
    # the spaces probe has one x and one v axis whatever d says
    ("spaces", ""),
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


@pytest.mark.parametrize("experiment,keys", [
    ("flow", "N = 100\n"),
    ("converge", "N = 100\np = 7\nn_ladder = 4,8,16\n"),
    ("krylov", "N = 100\np = 7\n"),
    ("fokker-planck", "N = 100\n"),
])
def test_cli_refuses_horizon_off_the_step_grid(experiment, keys, tmp_path,
                                                capsys):
    # rounding T = 0.5 to 2 steps of 0.3 would simulate to t = 0.6
    out = tmp_path / "out"
    path = write_config(
        tmp_path, f"experiment = {experiment}\nseed = 1\nT = 0.5\n"
                  f"dt = 0.3\n{keys}output = {out}\n")
    assert cli.main(["run", path]) == 2
    assert "not a whole number of dt = 0.3 steps" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_krylov_half_horizon_off_the_step_grid(tmp_path, monkeypatch,
                                                          capsys):
    # T = 0.75 is 3 steps of 0.25, but the windows starting at T/2 = 0.375
    # fall between steps
    from kinetic_flow import krylov

    def never(*args, **kwargs):
        raise AssertionError("krylov_ratio ran before the window check")

    monkeypatch.setattr(krylov, "krylov_ratio", never)
    out = tmp_path / "out"
    path = write_config(
        tmp_path, f"experiment = krylov\nseed = 1\nT = 0.75\ndt = 0.25\n"
                  f"N = 100\np = 7\noutput = {out}\n")
    assert cli.main(["run", path]) == 2
    assert "0.375 is not a whole number of dt = 0.25 steps" in capsys.readouterr().err
    assert not out.exists()
    parse_config_text("experiment = krylov\nseed = 1\nT = 1\ndt = 0.25\n"
                      "N = 100\np = 7\noutput = out\n")


@pytest.mark.parametrize("experiment,keys,message", [
    ("flow", "T = nan\ndt = 0.0625\nN = 100\n", "line 3: expected a finite"),
    ("flow", "T = inf\ndt = 0.0625\nN = 100\n", "line 3: expected a finite"),
    ("flow", "T = 1\ndt = nan\nN = 100\n", "line 4: expected a finite"),
    ("kernel", "T = nan\n", "line 3: expected a finite"),
    ("converge", "T = 1\ndt = 0.0625\nN = 100\np = nan\nn_ladder = 4,8\n",
     "line 6: expected a finite"),
    ("flow", "T = 1\ndt = 0.0625\nN = 100\nfield.kappa = nan\n",
     "line 6: expected a finite"),
    ("flow", "T = 1\ndt = 0.0625\nN = 100\nfield.support_radius = -1\n",
     "support radius must be positive"),
    ("zvonkin", "T = 1\ndt = 0.0078125\nlambda = 0\n",
     "lambda must be positive"),
    ("converge", "T = 1\ndt = 0.0625\nN = 100\np = 5\nn_ladder = 4,8,16\n",
     "need p > 6"),
    ("converge", "T = 1\ndt = 0.0625\nN = 99\np = 7\nn_ladder = 4,8,16\n",
     "need num_paths >= 100"),
    ("converge", "T = 1\ndt = 0.0625\nN = 100\np = 7\nn_ladder = 4,8\n",
     "at least 3 entries"),
    ("converge", "T = 1\ndt = 0.0625\nN = 100\np = 7\nn_ladder = 4,12,24\n",
     "must be dyadic"),
    ("flow", "T = 1\ndt = 0.0625\nN = 50\n", "need num_paths >= 100"),
    ("krylov", "T = 1\ndt = 0.0625\nN = 100\np = 3\n",
     "krylov needs p > 2d+1 = 3, got p = 3"),
    ("fokker-planck", "T = 1\ndt = 0.25\nN = 1\nfield.name = hoelder-drift\n",
     "needs at least 2 atoms"),
])
def test_cli_refuses_bad_values_before_the_output_exists(
        experiment, keys, message, tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"experiment = {experiment}\nseed = 1\n"
                                  f"{keys}output = {out}\n")
    assert cli.main(["run", path]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def _fail_at_three(i):
    if i == 3:
        raise LambdaTooSmallError(f"no contraction at task {i}",
                                  observed_ratio=0.875)
    return i


def test_parallel_map_reraises_a_worker_error_and_joins_its_workers():
    with pytest.raises(LambdaTooSmallError) as info:
        parallel_map(_fail_at_three, range(6), workers=2)
    assert type(info.value) is LambdaTooSmallError
    assert str(info.value) == "no contraction at task 3"
    assert info.value.observed_ratio == 0.875
    assert multiprocessing.active_children() == []


def test_parallel_map_runs_in_at_most_one_forked_worker_per_task():
    for workers, count in ((3, 7), (4, 2)):
        pids = parallel_map(lambda i: os.getpid(), range(count),
                            workers=workers)
        assert len(pids) == count
        assert 1 <= len(set(pids)) <= min(workers, count)
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []


def test_parallel_map_reports_a_dead_worker():
    def die(i):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(BrokenProcessPool):
        parallel_map(die, range(4), workers=2)
    assert multiprocessing.active_children() == []


def test_parallel_map_without_fork_maps_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    pids = parallel_map(lambda i: (i, os.getpid()), range(5), workers=4)
    assert pids == [(i, os.getpid()) for i in range(5)]


# the extra constructor arguments of the errors.py classes that take any
ERROR_SAMPLES = {
    errors.LambdaTooSmallError: {"observed_ratio": 0.96875},
    errors.GradientBoundError: {"measured": 1.5},
}


def test_every_package_error_survives_pickling():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.KineticFlowError)]
    assert set(ERROR_SAMPLES) < set(classes)
    for cls in classes:
        extra = ERROR_SAMPLES.get(cls, {})
        if cls.__init__ is not Exception.__init__:
            # every extra constructor argument is set from ERROR_SAMPLES
            params = inspect.signature(cls.__init__).parameters
            assert list(params) == ["self", "message", *extra]
        err = cls(f"{cls.__name__} raised", **extra)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert back.args == err.args
        assert vars(back) == vars(err) == extra


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


def test_manifest_records_versions_and_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("KF_WORKERS", "2")
    out = tmp_path / "run"
    run_experiment(kernel_config(out))
    lines = read_lines(out / "manifest.txt")
    echo = lines.index("# --- config echo (verbatim) ---")
    expected = [f"python = {'.'.join(map(str, sys.version_info[:3]))}",
                f"numpy = {np.__version__}", f"scipy = {scipy.__version__}",
                "workers = 2"]
    assert lines[echo - len(expected):echo] == expected


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


def d2_rows(tmp_path, name, csv_name):
    # the battery's determinism config at its fast sizes, run at d = 2
    out = tmp_path / name
    text = _experiment_texts(True)[name] + f"d = 2\noutput = {out}\n"
    assert run_experiment(parse_config_text(text)) == [csv_name, "manifest.txt"]
    return [row.split(",") for row in read_lines(out / csv_name)[1:]]


def test_kernel_runner_d2_blocks(tmp_path):
    rows = d2_rows(tmp_path, "kernel", "covariance.csv")
    # each block is a 2x2 multiple of the identity at unit diffusion
    diagonal = {"xx": 1.0 / 3.0, "xv": 0.5, "vv": 1.0}
    assert [(b, int(i), int(j)) for b, i, j, _ in rows] == [
        (b, i, j) for b in ("xx", "xv", "vv") for i in (0, 1) for j in (0, 1)]
    for block, i, j, value in rows:
        expected = diagonal[block] if i == j else 0.0
        assert np.isclose(float(value), expected, rtol=1e-15, atol=0.0)


def test_flow_runner_d2_ratios(tmp_path):
    rows = d2_rows(tmp_path, "flow", "flow.csv")
    ratios = np.array([float(r[2]) for r in rows])
    assert ratios.shape == (4,)
    assert np.all(np.isfinite(ratios)) and np.all(ratios >= 1.0)


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

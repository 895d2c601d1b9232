"""Byte pins of the runner CSVs of the six determinism configs (fast sizes).

The SHA-1 of every CSV that battery criterion 17 writes at its fast
sizes, recorded before the table writers were merged into one.  Any
change to a number, to the float format or to the row layout fails here.
The pins hold for the library versions recorded beside them; on other
versions a mismatch is reported as an expected failure that names both
version sets.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from kinetic_flow.acceptance import _experiment_texts
from kinetic_flow.config import parse_config_text
from kinetic_flow.runner import run_experiment

# (python, numpy, scipy) the pins were recorded with
PINNED_VERSIONS = ("3.11.7", "2.4.6", "1.17.1")

PINNED_SHA1 = {
    ("kernel", "covariance.csv"): "2ce077203e221b2b88eadd358415407bedcae27d",
    ("spaces", "spaces.csv"): "75ae01717795facf980c52187b8be464b76a4ea3",
    ("flow", "flow.csv"): "51eb1a7cfc79565a5cd2c2a0fe004e787c2aac4f",
    ("converge", "converge.csv"): "a65fd01b2e741f9d0e3076d96f2339d5fd66e691",
    ("krylov", "krylov.csv"): "550eafe1b80735f2f5e2b62ed3115894916759f4",
    ("krylov", "mgf.csv"): "b53fe3ae9722ecc8ef501fdd1abdbd360305bc06",
    ("fokker-planck", "atoms.csv"): "e6f4327fbdd642d1413de9b2b1d0c2eeedcdb6f2",
    ("fokker-planck", "residual.csv"):
        "75a7352988c76e506dc677f8453b03c2e5071c7f",
}


def test_runner_csv_bytes_are_pinned(tmp_path):
    found = {}
    for name, text in _experiment_texts(True).items():
        out = tmp_path / name
        outputs = run_experiment(parse_config_text(text + f"output = {out}\n"))
        for fname in outputs:
            if fname.endswith(".csv"):
                found[(name, fname)] = hashlib.sha1(
                    (out / fname).read_bytes()).hexdigest()
    assert set(found) == set(PINNED_SHA1)
    differing = sorted(key for key in found if found[key] != PINNED_SHA1[key])
    versions = (platform.python_version(), np.__version__, scipy.__version__)
    if differing and versions != PINNED_VERSIONS:
        pytest.xfail(f"CSV bytes differ in {differing} under python/numpy/"
                     f"scipy {versions}; pins were recorded under "
                     f"{PINNED_VERSIONS}")
    assert not differing, f"CSV bytes moved: {differing}"

"""Verification battery, one test per criterion.

The full battery takes a few minutes; set KF_ACCEPTANCE_SUITE=fast to
run the reduced-scale variant of every criterion instead.  Every
criterion's measured value is pinned bit for bit as ``float.hex`` for the
library versions recorded beside the pins; on other versions a mismatch
is reported as an expected failure that names both version sets.
"""

import os
import platform

import numpy as np
import pytest
import scipy

from kinetic_flow.acceptance import _CRITERIA, run_criterion
from kinetic_flow.errors import ValidationError

FAST = os.environ.get("KF_ACCEPTANCE_SUITE", "full").strip().lower() == "fast"
SUITE = "fast" if FAST else "full"

NAMES = {idx: name for idx, name, _ in _CRITERIA}

# (python, numpy, scipy) the pins were recorded with
PINNED_VERSIONS = ("3.11.7", "2.4.6", "1.17.1")

# float.hex of every criterion's measured value, per suite; a change that
# moves a bit fails here even when the value stays inside its threshold
PINNED_MEASURED = {
    "full": {
        1: "0x1.97abfefe0e28ap-2",
        2: "0x1.4200000000000p-46",
        3: "0x1.d33760fe6c800p-11",
        4: "0x1.010c98d6d18b9p+0",
        5: "0x1.e667e458a625fp-2",
        6: "0x0.0p+0",
        7: "-0x1.2d26c3029d130p+0",
        8: "0x1.b4034d278a4b4p+0",
        9: "0x1.14da70314f9b1p+0",
        10: "0x1.0cc88f7a109e1p+0",
        11: "0x1.ae6ffd3ba55efp-3",
        12: "0x1.b233cb4acf156p+0",
        13: "0x1.ee1b73ff65c35p-1",
        14: "-0x1.f57dcc693de2ep-1",
        15: "0x1.78802ada7bd89p+0",
        16: "0x1.7d1c4cef7d2f4p-1",
        17: "0x0.0p+0",
    },
    "fast": {
        1: "0x1.127ffe6e6a73bp-3",
        2: "0x1.4200000000000p-46",
        3: "0x1.13ec45627ac00p-10",
        4: "0x1.010c98d6d18b9p+0",
        5: "0x1.aaa15cd962d44p-4",
        6: "0x0.0p+0",
        7: "-0x1.f289467dada8ap-1",
        8: "0x1.2893b587ec2b7p+0",
        9: "0x1.15494dbca1961p+0",
        10: "0x1.02a8be4f3ac4dp+0",
        11: "0x1.33f01bb13bccdp-2",
        12: "0x1.b275243b6dc0dp+0",
        13: "0x1.e85e9e54de0d1p-1",
        14: "-0x1.f9a249b0e3cc2p-1",
        15: "0x1.63b391788167bp+0",
        16: "0x1.7d1c4cef7d2f4p-1",
        17: "0x0.0p+0",
    },
}


@pytest.mark.parametrize("index", sorted(NAMES))
def test_criterion(index):
    result = run_criterion(index, fast=FAST)
    assert result.name == NAMES[index]
    assert result.passed, (
        f"criterion {index} ({result.name}): measured {result.measured:.6g} "
        f"vs threshold {result.threshold:.6g}; {result.detail}"
    )
    measured = result.measured.hex()
    pinned = PINNED_MEASURED[SUITE][index]
    versions = (platform.python_version(), np.__version__, scipy.__version__)
    if measured != pinned and versions != PINNED_VERSIONS:
        pytest.xfail(f"criterion {index} ({SUITE}) measured {measured}, "
                     f"pinned {pinned}, under python/numpy/scipy {versions}; "
                     f"pins were recorded under {PINNED_VERSIONS}")
    assert measured == pinned, (
        f"criterion {index} ({SUITE}): measured {measured} "
        f"({result.measured!r}) moved from the pinned {pinned}")

def test_criterion_index_validation():
    with pytest.raises(ValidationError):
        run_criterion(0)
    with pytest.raises(ValidationError):
        run_criterion(18)


def test_weak_gradient_criterion_walks_each_delta_once(monkeypatch, serial):
    # both moment orders of #10 come from one walk per stack: the free
    # field's and each of the three deltas'
    from kinetic_flow import acceptance, flow

    stacks = []
    coupled_walk = flow._coupled_walk

    def counted(field, starts, *args):
        stacks.append(starts.tobytes())
        return coupled_walk(field, starts, *args)

    monkeypatch.setattr(flow, "_coupled_walk", counted)
    acceptance._weak_gradient_moments(True)
    assert len(stacks) == len(set(stacks)) == 4

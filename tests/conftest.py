"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from kinetic_flow import kernel


@pytest.fixture
def serial(monkeypatch):
    """Pin KF_WORKERS=1, so every `parallel_map` task runs in the test's
    own process: a monkeypatched counter sees each call and tracemalloc
    sees each allocation, whatever KF_WORKERS the suite runs under."""
    monkeypatch.setenv("KF_WORKERS", "1")


@pytest.fixture
def seam_guard_off(monkeypatch):
    """Switch the kernel's periodic-seam guard off, for sources that are
    genuinely periodic (constants, say), where wrap-around is not an
    error, and for coarse grids whose ringing reaches the seam."""
    monkeypatch.setattr(kernel, "SEAM_TAIL_TOL", np.inf)

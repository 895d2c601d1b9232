"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def serial(monkeypatch):
    """Pin KF_WORKERS=1, so every `parallel_map` task runs in the test's
    own process: a monkeypatched counter sees each call and tracemalloc
    sees each allocation, whatever KF_WORKERS the suite runs under."""
    monkeypatch.setenv("KF_WORKERS", "1")

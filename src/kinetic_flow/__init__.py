"""Desk-scale simulation and verification toolkit for kinetic SDEs.

Phase space is (x, v) with noise entering only the velocity; drifts may
be merely Hoelder.  The package simulates paths, solves the damped
resolvent PDE behind the velocity-coordinate change of variables,
verifies occupation and moment estimates, and transports the forward
measure by particles; `kinetic-flow run/acceptance` drives it from
configs.

Every run is a fresh process, so import time is paid per run.  At import
the package loads numpy, ``scipy.fft``, ``scipy.integrate`` and
``scipy.spatial`` (``flow``'s ``pdist``; ``scipy.integrate`` loads it
anyway).  ``scipy.stats`` and ``scipy.ndimage``, which most runs never
use, load at their call sites: ``fokker_planck``'s Gaussian sliced
distance, ``krylov.bump_family``'s Halton centres and ``zvonkin``'s
spline prefilter and interpolation.  ``scipy.integrate`` stays at module
top: ``spaces``' bump normalization calls ``integrate.quad`` in every
``converge`` run, before ``flow.convergence_study`` forks its level
tasks, so deferring the import would only move its cost from set-up into
the run itself.
"""

from . import (
    acceptance,
    config,
    errors,
    fields,
    flow,
    fokker_planck,
    grids,
    integrator,
    kernel,
    krylov,
    parallel,
    runner,
    spaces,
    zvonkin,
)
from .errors import KineticFlowError, ValidationError
from .fields import CoefficientField, library_field, mollified
from .grids import GridFunction
from .integrator import BrownianGrid, Trajectory, evolve
from .kernel import apply_semigroup, kernel_covariance, kernel_sample

__all__ = [
    "acceptance",
    "config",
    "errors",
    "fields",
    "flow",
    "fokker_planck",
    "grids",
    "integrator",
    "kernel",
    "krylov",
    "parallel",
    "runner",
    "spaces",
    "zvonkin",
    "KineticFlowError",
    "ValidationError",
    "CoefficientField",
    "library_field",
    "mollified",
    "GridFunction",
    "BrownianGrid",
    "Trajectory",
    "evolve",
    "apply_semigroup",
    "kernel_covariance",
    "kernel_sample",
]

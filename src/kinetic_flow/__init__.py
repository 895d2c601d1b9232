"""Desk-scale simulation and verification toolkit for kinetic SDEs.

Phase space is (x, v) with noise entering only the velocity; drifts may
be merely Hoelder.  The package simulates paths, solves the damped
resolvent PDE behind the velocity-coordinate change of variables,
verifies occupation and moment estimates, and transports the forward
measure by particles; `kinetic-flow run/acceptance` drives it from
configs.
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

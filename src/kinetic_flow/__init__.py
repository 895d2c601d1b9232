"""Desk-scale simulation and verification toolkit for kinetic SDEs.

Phase space is (x, v) with noise entering only the velocity; drifts may
be merely Hoelder.  The package simulates paths, solves the damped
resolvent PDE behind the velocity-coordinate change of variables,
verifies occupation and moment estimates, and transports the forward
measure by particles; `kinetic-flow run/acceptance` drives it from
configs.

Every run is a fresh process, so import time is paid per run.  At import
the package loads numpy, ``numpy.random`` included (``integrator``'s
noise), and no scipy subpackage.  Each scipy subpackage loads at its
call site, the first time that code runs: ``scipy.fft`` in the Zvonkin
resolvent and spectral derivatives, ``scipy.ndimage`` in their spline
prefilter and interpolation, ``scipy.stats`` in ``fokker_planck``'s
Gaussian sliced distance and ``krylov.bump_family``'s Halton centres,
``scipy.spatial`` in ``flow.homeomorphism_check``, and
``scipy.integrate`` in ``spaces``' bump normalization, for a phase
dimension its table does not hold.  Where forked workers need a module,
it loads before the map (see ``parallel``).
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

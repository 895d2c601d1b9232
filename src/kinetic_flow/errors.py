"""Exception types shared across the package.

Every guard that aborts a computation raises one of these instead of a bare
ValueError so callers (and the CLI exit-code mapping) can tell configuration
mistakes apart from runtime failures.
"""


class KineticFlowError(Exception):
    """Base class for all package errors."""


class ValidationError(KineticFlowError):
    """A parameter or config value violates a documented precondition."""


class AccuracyError(KineticFlowError):
    """A computation cannot meet its accuracy contract (resolution, tail mass)."""


class DegenerateKernelError(KineticFlowError):
    """Kernel covariance requested over a time gap too small to factor stably."""


class ProbeInvalidError(KineticFlowError):
    """A scaling probe produced norms unusable for a slope fit."""


class DivergenceError(KineticFlowError):
    """A sample path left the trusted region (``integrator.walk``'s rule)."""


class DegenerateRatioError(KineticFlowError):
    """Coupled paths collapsed to floating-point identity in a ratio statistic."""


class LambdaTooSmallError(KineticFlowError):
    """Picard iteration failed to contract at the requested damping rate.

    Carries the observed worst contraction ratio in ``observed_ratio``.
    """

    def __init__(self, message, observed_ratio=None):
        super().__init__(message)
        self.observed_ratio = observed_ratio


class GradientBoundError(KineticFlowError):
    """A velocity-gradient smallness condition failed; carries the measured sup."""

    def __init__(self, message, measured=None):
        super().__init__(message)
        self.measured = measured


class InvalidProcessSpecError(KineticFlowError):
    """A synthetic process spec violates its defining inequalities."""

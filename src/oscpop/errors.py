"""Exception hierarchy.

Two failure families matter to callers: domain errors (the requested
quantity does not exist or is not representable) and numerics errors
(an algorithm could not deliver the requested accuracy). The CLI maps
them to distinct exit codes, so keep new exceptions inside one of the
two branches.
"""

__all__ = [
    "OscPopError",
    "DomainError",
    "NumericsError",
    "ScheduleRangeError",
    "NonDifferentiableError",
    "PoleError",
    "NoPeriodicSolutionError",
    "ExponentOverflowError",
    "ConvergenceError",
    "StiffnessError",
    "DivergenceError",
]


class OscPopError(Exception):
    """Base class for all library-specific failures."""


class DomainError(OscPopError):
    """The requested quantity is undefined for the given inputs."""


class ScheduleRangeError(DomainError):
    """A tabulated schedule was queried outside its sampled time range."""


class NonDifferentiableError(DomainError):
    """The capacity derivative was requested exactly at a breakpoint."""


class PoleError(DomainError):
    """The constant-capacity solution formula hit a vanishing denominator."""


class NoPeriodicSolutionError(DomainError):
    """No positive periodic cycle exists for the given schedule."""


class ExponentOverflowError(DomainError):
    """A solution weight's exponent exceeds the representable range.

    Rescale time or population units so the growth exponent stays
    below 700.
    """


class NumericsError(OscPopError):
    """An algorithm failed to converge to the requested accuracy."""


class ConvergenceError(NumericsError):
    """Iteration or subdivision budget exhausted before convergence."""


class StiffnessError(NumericsError):
    """Step control drove the step size below the configured minimum."""


class DivergenceError(NumericsError):
    """The integrator state became non-finite."""

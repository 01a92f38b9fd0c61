"""Exception hierarchy.

Input problems (bad parameters, malformed scenario files) derive from
``InputError``; failures the model itself can hit on otherwise valid
inputs (no positive capital root, unsustainable steady state) derive
from ``ModelError``.  The CLI maps ``InputError`` to exit code 1,
``ModelError`` to 2 and I/O failures to 3.
"""


class JonesesError(Exception):
    """Base class for everything raised by this package."""


class InputError(JonesesError):
    """Invalid inputs: parameters, distributions, schedules, config files."""


class DomainError(InputError):
    """A numeric argument is outside its mathematical domain."""


class AssumptionZeroViolated(DomainError):
    """Spending share too large for the factor shares (phi/alpha or phi/(1-alpha) >= 1)."""


class AltruismOverflow(DomainError):
    """Altruism weight delta so large that n_agents * (1 + delta) overflows."""


class NuOutOfBounds(DomainError):
    """Tax-tilt ratio nu outside the admissible segment [nu_lower, nu_upper]."""


class LengthMismatch(InputError):
    """A wealth vector's length is not the dynasty count, or ``final_capitals``' paths disagree."""


class ExistenceBoundViolated(InputError):
    """Envy functional can exceed the ceiling that guarantees equilibria exist.

    ``margin`` is how far the worst-case envy weight lies above the ceiling.
    """

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class NonMonotoneSegments(InputError):
    """Fiscal schedule segment starts are not strictly increasing."""


class ScheduleTooShort(InputError):
    """Schedule does not provide a tax policy for every required period."""


class ParseError(InputError):
    """Configuration file is not valid JSON."""


class ValidationError(InputError):
    """Configuration value rejected; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ModelError(JonesesError):
    """Model-domain failure on otherwise valid inputs."""


class EnvyTooStrong(ModelError):
    """Some agent cannot afford the envy-adjusted consumption floor."""


class NoPositiveRoot(ModelError):
    """The bequest fixed point admits no positive next-period capital."""


class NotSustainable(ModelError):
    """Requested rich-class steady state fails the envy-threshold condition."""


class BudgetViolation(ModelError):
    """Government budget identity violated beyond tolerance."""


class Infeasible(ModelError):
    """Reform plan cannot be constructed from the given starting point."""


class EnvyBoundWarning(UserWarning):
    """Savings rate evaluated at an envy weight above the existence ceiling."""

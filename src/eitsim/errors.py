"""Exception types shared across the package.

Every class derives from EitsimError so callers can catch package failures
in one clause.  The CLI maps them to exit statuses by class: ConfigError
and InvalidArgumentError exit 2 ("config error"), StateCorruptionError
exits 4 ("validation error"), and every other EitsimError, a subclass
added later included, exits 3 ("solver error").
"""


class EitsimError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(EitsimError, ValueError):
    """A function argument is out of range, malformed or non-finite."""


class ConfigError(EitsimError, ValueError):
    """A configuration document or run setup is invalid."""


class ConventionError(EitsimError, ValueError):
    """A sign/unit convention was violated (e.g. negative absorption)."""


class SingularParametersError(EitsimError, ValueError):
    """A closed form is indeterminate at the supplied parameters."""


class StateCorruptionError(EitsimError, ValueError):
    """A density matrix violates hermiticity/trace/population bounds."""


class SteadyStateError(EitsimError, RuntimeError):
    """The steady-state solve failed or the solution is not unique."""


class IntegrationError(EitsimError, RuntimeError):
    """Time propagation broke down: a sample came out non-finite or lost
    its unit trace."""


class DivergentVelocityError(EitsimError, RuntimeError):
    """The group index vanished; the group velocity is undefined."""

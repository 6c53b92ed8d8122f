"""Exception types shared across the package."""


class GroupAnonError(Exception):
    """Base class for every error raised by this package.

    ``field``, when given, names the dataclass field a validation error is
    about, so that the command line can name the config key that set it.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class SignalError(GroupAnonError, ValueError):
    """Invalid signal contents or incompatible signal/filter geometry."""


class PlanError(GroupAnonError, ValueError):
    """Redistribution plan inconsistent with the decomposition it targets."""


class InfeasibleTargetsError(PlanError):
    """Requested target values cannot be met by the free coefficients."""


class MicrofileError(GroupAnonError, ValueError):
    """Malformed microfile or attribute specification."""


class RewriteError(GroupAnonError, ValueError):
    """Record rewrite cannot realize the requested quantities."""


class ConfigError(GroupAnonError, ValueError):
    """Run configuration is invalid."""

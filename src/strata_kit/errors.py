"""Exception hierarchy shared by all strata-kit modules.

Three error families matter to callers (and map onto distinct CLI exit
codes): malformed input shape (SchemaError), mathematically invalid input
or an internal consistency failure (DomainError), and results that cannot
be certified at the working precision (PrecisionError).  Precision problems
are always reported explicitly; no operation silently guesses a digit.
"""


class StrataKitError(Exception):
    """Base class for all strata-kit errors."""


class SchemaError(StrataKitError):
    """Input JSON (or argument shape) does not match the expected schema."""


class DomainError(StrataKitError):
    """Mathematically invalid input, or an internal consistency violation.

    Carries a machine-readable ``clause`` naming the violated condition, so
    validity reports and the CLI can point at the exact failing invariant.
    """

    def __init__(self, message, clause):
        super().__init__(message)
        self.clause = clause


class PrecisionError(StrataKitError):
    """The result would have no certain digits at the working precision."""

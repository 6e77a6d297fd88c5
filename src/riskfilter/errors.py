"""Exception types shared across the package.

The CLI maps these onto its exit-code taxonomy: configuration problems
and contract violations exit 1, a missing or unreadable model file exits
2, guarantee-domain violations exit 3, and I/O failures exit 4.
"""


class RiskFilterError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RiskFilterError):
    """Invalid configuration.

    ``code`` is a stable machine-readable tag: one of ``missing-file``,
    ``syntax``, ``unknown-key``, ``invalid-value``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ContractViolationError(RiskFilterError):
    """A caller violated an operation's precondition (dimension mismatch,
    empty sample set, non-finite input, ...)."""


class GuaranteeDomainError(RiskFilterError):
    """The state left the region where the safety guarantee is defined
    (barrier value below the admissible threshold, or an out-of-domain
    argument to the safety-probability formula)."""


class MissingModelError(RiskFilterError):
    """A required model file is missing or unreadable: truncated, corrupt,
    or of another format version."""

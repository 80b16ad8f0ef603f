"""Exception and warning types shared across the package."""

__all__ = [
    "ConfigError",
    "PoleError",
    "TruncationError",
    "LineListError",
    "OracleError",
    "DivergenceWarning",
    "InsufficientDecayWarning",
]


class ConfigError(Exception):
    """Raised for a malformed or inconsistent run configuration."""


class PoleError(ValueError):
    """Raised when the generating function is evaluated on (or numerically
    indistinguishable from) one of its poles."""


class TruncationError(RuntimeError):
    """Raised when a truncated-basis result is contaminated by the basis
    edge and cannot be trusted at the requested accuracy."""


class LineListError(RuntimeError):
    """Raised when a line list misses its accuracy target: the first T = 0
    weight underflows, the list needs more levels than the cap allows, or
    a thermal list fails its first-moment check."""


class OracleError(RuntimeError):
    """Raised when a truncated-basis reference fails a consistency check
    that no basis size can repair: the assembled Hamiltonian is not
    Hermitian, or an expectation value keeps an imaginary residue."""


class DivergenceWarning(UserWarning):
    """The generating function was evaluated outside the disk where its
    Taylor series converges; the closed form is returned regardless."""


class InsufficientDecayWarning(UserWarning):
    """A damped spectral window was cut off before the correlation had
    decayed enough for reliable line shapes."""

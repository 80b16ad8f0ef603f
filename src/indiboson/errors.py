"""Exception types shared across the package. Every failure the package
reports is one of these or a ValueError."""

__all__ = [
    "ConfigError",
    "PoleError",
    "TruncationError",
    "LineListError",
    "OracleError",
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
    a thermal list overflows in its sweep or fails its first-moment check."""


class OracleError(RuntimeError):
    """Raised when a truncated-basis reference fails a consistency check
    that no basis size can repair: the assembled Hamiltonian is not
    Hermitian, or an expectation value keeps an imaginary residue."""

"""Exception and warning types shared across the package."""

__all__ = [
    "ConfigError",
    "PoleError",
    "TruncationError",
    "LineListError",
    "OracleError",
    "DivergenceWarning",
    "InsufficientDecayWarning",
    "ResolutionWarning",
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
    """Raised when a zero-temperature line list cannot be streamed: the
    first weight underflows to zero, or the list runs into its line cap
    before reaching the sum rule."""


class OracleError(RuntimeError):
    """Raised when a truncated-basis reference fails a consistency check
    that no basis size can repair: the assembled Hamiltonian is not
    Hermitian, or an expectation value keeps an imaginary residue."""


class DivergenceWarning(UserWarning):
    """The generating function was evaluated outside the disk where its
    Taylor series converges; the closed form is returned regardless."""


class InsufficientDecayWarning(UserWarning):
    """A damped Fourier transform was truncated before the integrand had
    decayed enough for reliable line shapes."""


class ResolutionWarning(UserWarning):
    """A sampled transform hit its sample cap, so its time step is coarser
    than the documented accuracy target asks for."""

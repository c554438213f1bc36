"""Exception types shared across the library."""


class RelochainError(Exception):
    """Base class for all library errors."""


class NonFiniteEntryError(RelochainError, ValueError):
    """A matrix entry is NaN or infinite."""


class NegativeEntryError(RelochainError, ValueError):
    """A matrix entry is negative beyond rounding tolerance."""


class RowSumExceedsOneError(RelochainError, ValueError):
    """A row sums to more than 1 beyond the clamping tolerance."""


class ReducibleError(RelochainError, ValueError):
    """The support digraph is not strongly connected."""


class PeriodicError(RelochainError, ValueError):
    """The support digraph has period greater than 1."""


class NonPositiveInputError(RelochainError, ValueError):
    """An operation requiring strictly positive coordinates received a zero or negative one."""


class ZeroRowError(RelochainError, ValueError):
    """A matrix row is identically zero."""


class DegenerateImageError(RelochainError, ValueError):
    """A normalized image collapsed to the zero vector."""


class NoConvergenceError(RelochainError, RuntimeError):
    """Power iteration failed to converge within the iteration budget."""


class StateCapExceededError(RelochainError, ValueError):
    """A lifted state space would exceed the configured cap."""

    def __init__(self, message, best_d=None):
        super().__init__(message)
        self.best_d = best_d


class OverflowGuardError(RelochainError, OverflowError):
    """A running product left the representable range.

    Weights are accumulated in log space throughout, so this is unreachable
    for sub-stochastic inputs; the guard remains as a hard stop for corrupted
    state.
    """


class ConfigParseError(RelochainError, ValueError):
    """A config failed to parse; carries line and column when the text came from a file."""

    def __init__(self, message, line=None, column=1):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownExperimentError(RelochainError, ValueError):
    """A config names an experiment this package does not provide."""


class ProportionalToStochasticWarning(UserWarning):
    """All row sums are equal: killing is uniform and the comparison is trivial."""

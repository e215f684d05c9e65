"""Exception types shared across the package."""


class SeamlocError(Exception):
    """Base class for all package errors; the CLI prints error[category] and exits with exit_code.

    record is (key, index among that key's records) of the input record the error is about, or
    None; a loader names the error's place with at(), which sets path and line (None until then).
    """

    category = "error"
    exit_code = 1

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
        self.path = self.line = None

    def at(self, path, line=None):
        """Put path:line: (path: with no line) in front of the message, keep both, and return self."""
        self.path, self.line = str(path), line
        self.args = (f"{path}: {self}" if line is None else f"{path}:{line}: {self}",)
        return self


class InvalidParameterError(SeamlocError, ValueError):
    """A configuration value or argument is out of its valid range."""

    category = "invalid-parameter"
    exit_code = 2


class InvalidInputError(SeamlocError, ValueError):
    """Input data is structurally unusable (empty, inconsistent lengths, ...)."""

    category = "invalid-input"
    exit_code = 5


class InvalidScriptError(SeamlocError, ValueError):
    """A walk script cannot be realized (degenerate waypoints, bad cadence)."""

    category = "invalid-script"
    exit_code = 6


class ParseError(SeamlocError, ValueError):
    """A file could not be parsed; carries path and line diagnostics."""

    category = "parse"
    exit_code = 3

    def __init__(self, message, path=None, line=None, record=None):
        super().__init__(message, record)
        if path is not None:
            self.at(path, line)


class InvariantViolation(SeamlocError, ValueError):
    """A loaded value failed a named domain invariant."""

    category = "invariant"
    exit_code = 4

    def __init__(self, invariant, message, record=None):
        super().__init__(f"{invariant}: {message}", record)
        self.invariant = invariant


class FilterDivergenceError(SeamlocError, RuntimeError):
    """Every particle was eliminated; the filter has no support left."""

    category = "filter-divergence"
    exit_code = 7


class UnreliableMeasurementError(SeamlocError, RuntimeError):
    """A sensor reading is too weak to use (e.g. near-zero magnetic field)."""

    category = "unreliable-measurement"
    exit_code = 9

"""Exception types shared across the package."""


class LogmatchError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LogmatchError, ValueError):
    """An argument violates a documented precondition or invariant."""


class NumericalError(LogmatchError, RuntimeError):
    """An iterative numerical procedure failed to converge or produced garbage."""


class ParseError(LogmatchError, ValueError):
    """A file could not be parsed. Carries the offending location."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        self.message = message
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # Rebuild from the constructor's own arguments; the default would
        # pass only the formatted message. Worker errors cross processes
        # by pickling.
        return (type(self), (self.path, self.message, self.line))

"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class UsageError(ValueError):
    """An operation was called outside its contract."""


class ParseError(ValueError):
    """Malformed input data; message carries the offending line number and,
    where the reader knows it, the file."""

    def __init__(self, message, line=None, path=None):
        self.reason = message
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class TrainingError(RuntimeError):
    """Training aborted (e.g. non-finite loss); message carries diagnostics."""

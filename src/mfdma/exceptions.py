"""Exception hierarchy shared by all mfdma modules.

The CLI maps these onto exit codes: ValidationError -> 2,
DegenerateDataError -> 3, InputFormatError and OSError -> 4.
"""

__all__ = [
    "MfdmaError",
    "ValidationError",
    "DegenerateDataError",
    "DegenerateSegmentError",
    "InputFormatError",
]


class MfdmaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MfdmaError, ValueError):
    """A parameter, grid, or input shape violates a documented precondition."""


class DegenerateDataError(MfdmaError):
    """The data admits no meaningful q-order statistics (zero fluctuations)."""


class DegenerateSegmentError(DegenerateDataError):
    """A segment has zero RMS, so negative or zero moments are undefined."""

    def __init__(self, message, scale=None, q=None):
        super().__init__(message)
        self.scale = scale
        self.q = q


class InputFormatError(MfdmaError):
    """An input file could not be parsed; carries file position context."""

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line

"""Exception types shared across the package."""

__all__ = [
    "CactusOpsError",
    "NonPositiveError",
    "DegenerateError",
    "NotSurjectiveError",
    "OutOfRangeError",
    "NotHomogeneousError",
    "MaxValueNotUniqueError",
    "NotACactusError",
    "ResourceBoundError",
    "ParseError",
    "WordError",
]


class CactusOpsError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveError(CactusOpsError, ValueError):
    """A sequence entry is not a positive integer."""


class DegenerateError(CactusOpsError, ValueError):
    """Two adjacent entries of a sequence are equal."""


class NotSurjectiveError(CactusOpsError, ValueError):
    """A value between 1 and the maximum entry never occurs."""


class OutOfRangeError(CactusOpsError, IndexError):
    """A 1-based index (a position, lobe or slot) lies outside its valid range."""


class NotHomogeneousError(CactusOpsError, ValueError):
    """An operation required all terms to share one arity and degree."""


class MaxValueNotUniqueError(CactusOpsError, ValueError):
    """The top lobe of a term occurs more than once."""


class NotACactusError(CactusOpsError, ValueError):
    """The sequence contains a crossing alternation (i,j,i,j).

    ``witness`` holds the four 1-based positions of the offending pattern.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceBoundError(CactusOpsError, RuntimeError):
    """An enumeration exceeded the configured sequence-length cap."""


class ParseError(CactusOpsError, ValueError):
    """Malformed textual input.  Carries 1-based ``line`` and ``column``."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class WordError(CactusOpsError, ValueError):
    """A generator word contains letters other than 'w' and 'b'."""

"""Exception types shared across the package, and how their messages quote
long values."""

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


# A longer string or sequence is quoted in a message by this many
# characters or entries and its length.
_QUOTE_MAX = 20


def _quote(value, show=repr) -> str:
    """show(value), cut to its first part and its length when value is a
    string or sequence longer than ``_QUOTE_MAX``."""
    if not isinstance(value, (str, tuple, list)) or len(value) <= _QUOTE_MAX:
        return show(value)
    unit = "characters" if isinstance(value, str) else "entries"
    return f"{show(value[:_QUOTE_MAX])}... ({len(value)} {unit})"


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
    """A request exceeds a size bound: the sequence-length cap of an
    enumeration, or the term count of a structure map."""


class ParseError(CactusOpsError, ValueError):
    """Malformed input.  Errors in text carry its 1-based ``line`` and
    ``column``, which the message ends with; errors about a JSON object,
    which has no position, leave both None."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class WordError(CactusOpsError, ValueError):
    """A generator word contains letters other than 'w' and 'b'."""
